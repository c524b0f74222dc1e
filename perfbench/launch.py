"""Run one ``mfng`` CLI command with spans recorded at its layer boundaries.

    python perfbench/launch.py SRC_DIR SPANS_JSON RUN_ID ARG...

imports ``mfng`` from SRC_DIR, wraps the public functions each layer is
called through, runs ``mfng.cli.main([ARG...])`` and, on the way out, writes
every span as ``[name, start, end, parent, attrs]`` (parent is an index into
the list, or -1) to SPANS_JSON under the given run id.  Spans live in memory
until then.  Nothing in the package is edited; only its module attributes
are rebound in this process.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span around each call; attrs(args, kwargs, result) -> dict."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _rebind(modules, original, replacement) -> None:
    """Point every module attribute bound to original at replacement."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    cli = importlib.import_module("mfng.cli")
    sampler = importlib.import_module("mfng.sampler")
    features = importlib.import_module("mfng.features")
    measure = importlib.import_module("mfng.measure")
    fit = importlib.import_module("mfng.fit")  # mfng.fit the attribute is the function
    package = [m for name, m in sorted(sys.modules.items())
               if name == "mfng" or name.startswith("mfng.")]

    def edges_of(args, kwargs, graph):
        return {"edges": graph.edge_count}

    def lines_of(args, kwargs, pairs):
        return {"lines": len(pairs)}

    def optimize_result(args, kwargs, result):
        return {"nfev": int(result.nfev), "success": bool(result.success)}

    functions = [
        (cli, "read_edge_list", "cli.read_edge_list", lines_of),
        (cli, "write_edge_list", "cli.write_edge_list", None),
        (sampler, "fast_sample", "sampler.fast_sample", edges_of),
        (sampler, "noisy_sample", "sampler.noisy_sample", edges_of),
        (sampler, "naive_sample", "sampler.naive_sample", edges_of),
        (sampler, "make_noise_schedule", "sampler.noise_schedule", None),
        (features, "from_edge_list", "features.from_edge_list", None),
        (features, "count_stars", "features.count_stars", None),
        (features, "count_triangles", "features.count_triangles", None),
        (features, "count_4cliques", "features.count_4cliques", None),
        (features, "degree_distribution", "features.degree_distribution", None),
        (measure, "expected_feature_vector", "measure.expected_feature_vector", None),
        (fit, "fit", "fit.fit", None),
        (fit, "local_optimize", "fit.local_optimize", None),
        (fit, "minimize", "fit.minimize", optimize_result),
    ]
    for module, attr, name, attrs in functions:
        original = getattr(module, attr)
        _rebind(package, original, tracer.wrap(name, original, attrs))

    # The moment closed forms are timed only as the fit module calls them.
    for attr in ("expected_edges", "expected_d_stars", "expected_t_cliques"):
        setattr(fit, attr, tracer.wrap(f"measure.{attr}", getattr(fit, attr)))

    def box_count(args, kwargs, result):
        return {"size": int(kwargs["size"] if "size" in kwargs else args[2])}

    QTable, CategoryIndex, Graph = sampler.QTable, sampler.CategoryIndex, features.Graph
    QTable.sample_pairs = tracer.wrap("sampler.box_draw", QTable.sample_pairs, box_count)
    CategoryIndex.__init__ = tracer.wrap("sampler.category_index", CategoryIndex.__init__)
    CategoryIndex.lookup = tracer.wrap("sampler.category_lookup", CategoryIndex.lookup)
    Graph.from_pairs = classmethod(
        tracer.wrap("graph.from_pairs", Graph.from_pairs.__func__))


def main(argv: list[str]) -> int:
    src, spans_path, run_id, *cli_args = argv
    sys.path.insert(0, src)
    import mfng.cli

    tracer = Tracer(run_id)
    install(tracer)
    try:
        return mfng.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
