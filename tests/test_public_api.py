"""The package's public names: the library surface the README and the CLI
build on, plus the error classes; test-only helpers stay in their modules.
"""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mfng
from mfng import errors
from mfng.cli import main, write_measure

LIBRARY_SURFACE = {
    # measures and closed-form expectations
    "DEFAULT_FEATURES", "CliqueNumberEstimate", "EdgeMoments", "FeatureVector",
    "GeneratingMeasure", "edge_moments", "edge_survival_factor",
    "estimate_clique_number", "expected_d_stars", "expected_degree_counts",
    "expected_edges", "expected_feature_vector", "expected_t_cliques",
    "make_measure", "parse_feature",
    # graphs and counting
    "DegreeDistribution", "Graph", "clustering_coefficient", "count_4cliques",
    "count_stars", "count_triangles", "degree_distribution", "feature_vector",
    "from_edge_list",
    # fitting
    "FitConfig", "FitResult", "fit",
    # sampling
    "fast_sample", "naive_sample", "noisy_sample",
    "sample_by_intersection",
}


def test_public_names_are_the_documented_surface():
    error_classes = {name for name, value in vars(errors).items()
                     if isinstance(value, type) and issubclass(value, mfng.MfngError)}
    # Submodules show up in dir() once anything imports them; they are not
    # re-exports.
    public = sorted(name for name in dir(mfng) if not name.startswith("_")
                    and not isinstance(getattr(mfng, name), types.ModuleType))
    assert public == sorted(LIBRARY_SURFACE | error_classes)


# Installs perfbench/launch.py's tracer, which rebinds package functions and
# methods by name, in a fresh interpreter that imports mfng from src/.
_TRACER_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import launch
launch.install(launch.Tracer("probe"))
print("installed")
"""


def test_the_benchmark_tracer_finds_every_name_it_rebinds():
    root = Path(__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE, str(root / "src"), str(root / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "installed\n", "")


@pytest.mark.parametrize("command, spans", [
    (["sample", "--method", "fast"], {"sampler.fast_sample", "sampler.box_draw"}),
    (["sample", "--method", "noisy", "--noise", "0.05"],
     {"sampler.noisy_sample", "sampler.noise_schedule", "sampler.box_draw"}),
    (["sample", "--method", "naive"], {"sampler.naive_sample", "sampler.category_index"}),
    (["features"], {"cli.read_edge_list", "features.from_edge_list"}),
    (["fit", "--m", "2", "--k", "8", "--restarts", "1"],
     {"fit.fit", "measure.expected_feature_vector"}),
], ids=["sample-fast", "sample-noisy", "sample-naive", "features", "fit"])
def test_the_benchmark_tracer_runs_the_cli_as_it_is(tmp_path, capsys, command, spans):
    # Each command runs untraced in process, then through perfbench/launch.py
    # with the same arguments: same exit code, stdout and output file, and
    # the spans the benchmark reads are recorded.
    root = Path(__file__).resolve().parents[1]
    measure, graph, out = tmp_path / "m.json", tmp_path / "g.tsv", tmp_path / "out"
    write_measure(mfng.make_measure([0.25, 0.75], [[0.59, 0.43], [0.43, 0.78]], k=8),
                  str(measure))
    assert main(["sample", "--measure", str(measure), "--nodes", "300", "--seed", "3",
                 "--out", str(graph)]) == 0
    argv = command[:1] + (["--measure", str(measure), "--nodes", "300", "--seed", "3"]
                          if command[0] == "sample" else ["--graph", str(graph)])
    argv += command[1:] + (["--out", str(out)] if command[0] != "features" else [])
    capsys.readouterr()
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    written = out.read_bytes() if out.exists() else None

    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launch.py"), str(root / "src"),
         str(spans_path), "probe", *argv],
        capture_output=True, text=True, timeout=120)
    assert (traced.returncode, traced.stdout, traced.stderr) == (0, untraced, "")
    assert (out.read_bytes() if out.exists() else None) == written
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert spans <= names


def test_every_error_class_is_used_outside_its_module():
    # A class counts as used when some module names it, say to raise it,
    # catch it or pass it along, or when it is a base of a class that is.
    package = Path(mfng.__file__).parent
    named = set()
    for path in package.glob("*.py"):
        if path.name in ("errors.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    classes = [value for value in vars(errors).values()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    used = [cls for cls in classes if cls.__name__ in named]
    dead = [cls.__name__ for cls in classes
            if not any(issubclass(user, cls) for user in used)]
    assert dead == []


def test_every_np_unique_call_asks_for_a_return_array():
    # Bare np.unique over int64 keys takes a hash path about 60 times slower
    # than a sort and a neighbour mask (2.1 s against 0.034 s for 1.9M keys
    # on numpy 2.4), so package code sorts instead.  A call that asks for an
    # index, inverse or count array still sorts.
    package = Path(mfng.__file__).parent
    bare = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and not any((kw.arg or "").startswith("return_") for kw in node.keywords)):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_only_features_builds_a_graph_from_pairs():
    # Graph.from_pairs validates, encodes and sorts pairs from outside the
    # package; the samplers build a graph's sorted keys themselves.
    package = Path(mfng.__file__).parent
    callers = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_pairs" and path.name != "features.py"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_only_the_reader_and_the_fit_compute_level_bases():
    # measure._level_survivals reads a measure or a schedule as its level
    # matrices, and fit._scorer stacks the fit's lanes; every other closed
    # form goes through the reader.
    package = Path(mfng.__file__).parent
    naming, calls = set(), []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id == "_level_bases")
                    or (isinstance(node, ast.alias) and node.name == "_level_bases")
                    or (isinstance(node, ast.Attribute) and node.attr == "_level_bases")):
                naming.add(path.name)
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_level_bases"):
                    calls.append((path.name, top.name))
    assert naming == {"fit.py", "measure.py"}
    assert calls == [("fit.py", "_scorer"), ("measure.py", "_level_survivals")]
