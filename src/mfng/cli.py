"""Command-line front end.

Subcommands: moments, features, degree-dist, fit, sample, compare.  All
output is deterministic byte for byte given the same inputs and seed (no
timestamps, fixed orderings, fixed float formatting).

Exit codes: 0 success, 1 usage error, 2 bad input data (parse, schema, or
validation failure), 3 runtime failure (the fast sampler stalled, an
expectation overflows a float, or the command ran out of memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Sequence

import numpy as np

from .errors import (
    MfngError,
    ParseError,
    SchemaError,
    StalledError,
)
from .fit import FitConfig, fit as fit_measure
from .features import (
    degree_distribution,
    feature_vector,
    from_edge_list,
)
from .measure import (
    DEFAULT_FEATURES,
    GeneratingMeasure,
    edge_moments,
    expected_feature_vector,
    make_measure,
    parse_feature,
)
from .sampler import fast_sample, naive_sample, noisy_sample

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_INT64 = np.iinfo(np.int64)

# np.loadtxt decompresses a path with one of these endings, so read_edge_list
# leaves such a file, which it reads as plain text, to the line parser.
_DECOMPRESSED_BY_NUMPY = (".gz", ".bz2", ".xz", ".lzma")


def read_edge_list(path: str) -> np.ndarray:
    """Parse a whitespace-separated edge list into an (E, 2) int64 array.

    Lines starting with '#' and blank lines are skipped; every other line
    must hold exactly two integers that fit in int64.  Pairs come back in
    file order with no interpretation (no deduping, no symmetrizing).

    The file is read as text once, which checks that it is UTF-8 and where
    its '#' characters are, and then parsed in one ``np.loadtxt`` call.
    That parser is looser than the rule above (it strips a '#' comment
    anywhere in a line, and its column count is only known afterwards), so
    it is used only when every '#' starts a line and the result has two
    columns.  It is given the path, not the text: from a path numpy reads
    the file in blocks, from a ``StringIO`` line by line, at about half the
    speed.  Anything else, including any failure and a path that numpy
    would decompress, goes to the line parser, which accepts the same files
    and names the first bad line in its ``ParseError``.
    """
    text = _read_text(path, ParseError)
    if (text.count("#") == text.startswith("#") + text.count("\n#")
            and not os.fspath(path).endswith(_DECOMPRESSED_BY_NUMPY)):
        try:
            with warnings.catch_warnings():
                # an empty file warns; a float field warns on older numpy
                warnings.simplefilter("error")
                pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2,
                                   encoding="utf-8")
        except (ValueError, Warning):
            pass
        else:
            if pairs.shape[1] == 2:
                return pairs
    return _read_edge_lines(path)


def _read_edge_lines(path: str) -> np.ndarray:
    """The line-by-line parser behind ``read_edge_list``."""
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(_read_text(path, ParseError).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(
                f"{path}:{lineno}: expected two integers, got {len(parts)} fields",
                line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(
                f"{path}:{lineno}: expected two integers, got {stripped!r}",
                line=lineno) from None
        if not (_INT64.min <= u <= _INT64.max and _INT64.min <= v <= _INT64.max):
            raise ParseError(
                f"{path}:{lineno}: node id outside the 64-bit integer range",
                line=lineno)
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _read_text(path: str, error: type[MfngError]) -> str:
    """The whole file as text (newlines translated to '\n'); bytes that are
    not UTF-8 raise ``error`` naming the line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, so exc.object is all of it
            lineno = exc.object[:exc.start].count(b"\n") + 1
            raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _fmt(value: float) -> str:
    """17 significant digits: enough to round-trip a double exactly."""
    return format(float(value), ".17g")


def write_measure(measure: GeneratingMeasure, path: str) -> None:
    """Serialize a measure as a small JSON document (full float precision)."""
    lengths = "[" + ", ".join(_fmt(x) for x in measure.lengths.tolist()) + "]"
    rows = ",\n    ".join(
        "[" + ", ".join(_fmt(x) for x in row) + "]"
        for row in measure.probs.tolist())
    text = (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "m": {measure.m},\n'
        f'  "k": {measure.k},\n'
        f'  "lengths": {lengths},\n'
        f'  "probs": [\n    {rows}\n  ]\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_measure(path: str) -> GeneratingMeasure:
    """Load and validate a measure document."""
    try:
        doc = json.loads(_read_text(path, SchemaError))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: measure document must be a JSON object")
    for key in ("schema_version", "m", "k", "lengths", "probs"):
        if key not in doc:
            raise SchemaError(f"{path}: missing key {key!r}")
    # Exact type checks: JSON true/false load as bool, a subclass of int,
    # and 1.0 loads as a float that equals 1.
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema_version {version!r}")
    m, k = doc["m"], doc["k"]
    if type(m) is not int or type(k) is not int:
        raise SchemaError(f"{path}: m and k must be integers")
    lengths = doc["lengths"]
    probs = doc["probs"]
    if (not isinstance(lengths, list) or len(lengths) != m
            or not all(type(x) in (int, float) for x in lengths)):
        raise SchemaError(f"{path}: lengths must be a list of {m} numbers")
    if (not isinstance(probs, list) or len(probs) != m
            or not all(isinstance(row, list) and len(row) == m
                       and all(type(x) in (int, float) for x in row)
                       for row in probs)):
        raise SchemaError(f"{path}: probs must be a {m}x{m} matrix")
    return make_measure(lengths, probs, k)


# Edges formatted per write call; bounds the buffers held in memory at once.
_WRITE_SLICE = 1 << 16


def write_edge_list(graph, path: str, header_lines: Sequence[str]) -> None:
    r"""Write one "# <line>" per header entry (UTF-8), then one "u\tv" line
    per edge, endpoints ascending, lines sorted.

    Each slice of ``_WRITE_SLICE`` edges is formatted as one uint8 matrix
    with a row per edge: each id's digits, zero-padded to the width of
    n - 1, then its separator.  Masking out the leading zeros leaves the
    bytes of the per-line format ``f"{u}\t{v}\n"``, which are written as
    they are.
    """
    edges = graph.edge_array()
    width = len(str(max(graph.n - 1, 0)))
    rows = min(edges.shape[0], _WRITE_SLICE)
    digits = np.empty((rows, 2, width + 1), dtype=np.uint8)
    digits[:, :, width] = (ord("\t"), ord("\n"))
    keep = np.ones((rows, 2, width + 1), dtype=bool)
    quotient = np.empty((rows, 2), dtype=np.int64)
    remainder = np.empty((rows, 2), dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header_lines).encode("utf-8"))
        for start in range(0, edges.shape[0], _WRITE_SLICE):
            size = min(rows, edges.shape[0] - start)
            q, r = quotient[:size], remainder[:size]
            q[...] = edges[start:start + size]
            # Digits from the last place up; a place is a leading zero once
            # the quotient left above it is zero, and the last place never is.
            for place in reversed(range(width)):
                if place < width - 1:
                    np.greater(q, 0, out=keep[:size, :, place])
                np.divmod(q, 10, out=(q, r))
                np.add(r, ord("0"), out=digits[:size, :, place], casting="unsafe")
            fh.write(digits[:size][keep[:size]])


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit_table(rows: list[tuple], header: tuple, fmt: str, out) -> None:
    """Aligned text ('text') or RFC-4180-style CSV ('csv')."""
    if fmt == "csv":
        out.write(",".join(header) + "\r\n")
        for row in rows:
            out.write(",".join(row) + "\r\n")
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _emit_comparison(actual, expected, fmt: str) -> None:
    """One row per counted feature: actual, expected and expected / actual,
    the ratio left blank where the count is 0."""
    rows = [(key, str(count), _fmt(expected.value(key)),
             _fmt(expected.value(key) / count) if count > 0 else "")
            for key, count in actual.items()]
    _emit_table(rows, ("feature", "actual", "expected", "ratio"), fmt, sys.stdout)


def _parse_features_arg(spec: str) -> tuple[str, ...]:
    keys = tuple(key.strip() for key in spec.split(",") if key.strip())
    if not keys:
        raise SchemaError("empty feature list")
    for key in keys:
        parse_feature(key)
    return keys


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    measure = read_measure(args.measure)
    features = _parse_features_arg(args.features)
    expectations = expected_feature_vector(measure, args.nodes, features)
    moments = edge_moments(measure, args.nodes)
    rows = [(key, _fmt(value)) for key, value in expectations.items()]
    rows.append(("edge_std", _fmt(moments.std)))
    _emit_table(rows, ("feature", "expected"), args.format, sys.stdout)
    return EXIT_OK


def cmd_features(args) -> int:
    graph = from_edge_list(read_edge_list(args.graph))
    counts = feature_vector(graph, _parse_features_arg(args.features))
    rows = [("nodes", str(graph.n))]
    rows += [(key, str(value)) for key, value in counts.items()]
    _emit_table(rows, ("feature", "count"), args.format, sys.stdout)
    return EXIT_OK


def cmd_degree_dist(args) -> int:
    graph = from_edge_list(read_edge_list(args.graph))
    dist = degree_distribution(graph)
    rows = [(str(d), str(count), _fmt(c))
            for d, (count, c) in enumerate(zip(dist.counts.tolist(), dist.ccdf().tolist()))]
    with open(args.out, "w", encoding="utf-8") as fh:
        _emit_table(rows, ("degree", "count", "ccdf"), "csv", fh)
    sys.stdout.write(f"wrote {dist.counts.size} degree rows to {args.out}\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    graph = from_edge_list(read_edge_list(args.graph))
    target = feature_vector(graph, DEFAULT_FEATURES)
    config = FitConfig(
        m=args.m, k=args.k, restarts=args.restarts, seed=args.seed)
    result = fit_measure(target, graph.n, config)
    sys.stdout.write(
        f"fit: m={args.m} k={result.k} objective={_fmt(result.objective)} "
        f"restart={result.restart} of {result.restarts}\n")
    _emit_comparison(target, expected_feature_vector(result.measure, graph.n, target.keys()),
                     args.format)
    write_measure(result.measure, args.out)
    sys.stdout.write(f"wrote measure to {args.out}\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.noise != 0.0 and args.method != "noisy":
        raise _UsageError(f"--noise applies only to --method noisy, not {args.method}")
    measure = read_measure(args.measure)
    rng = np.random.default_rng(args.seed)
    if args.method == "naive":
        graph = naive_sample(args.nodes, measure, rng)
    elif args.method == "fast":
        graph = fast_sample(args.nodes, measure, rng)
    else:  # argparse restricts the choices to these three
        graph = noisy_sample(args.nodes, measure, args.noise, rng)
    header = [
        "mfng sample",
        f"measure: {args.measure}",
        f"method: {args.method}",
        f"nodes: {args.nodes}",
        f"seed: {args.seed}",
    ]
    if args.method == "noisy":
        header.append(f"noise: {_fmt(args.noise)}")
    write_edge_list(graph, args.out, header)
    sys.stdout.write(f"wrote {graph.edge_count} edges on {graph.n} nodes to {args.out}\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    graph = from_edge_list(read_edge_list(args.graph))
    measure = read_measure(args.measure)
    features = _parse_features_arg(args.features)
    _emit_comparison(feature_vector(graph, features),
                     expected_feature_vector(measure, graph.n, features), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _depth_arg(text: str) -> int | None:
    """--k: a recursion depth, or None for 'auto'."""
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'auto', got {text!r}") from None


def _seed_arg(text: str) -> int:
    """--seed: a nonnegative integer, as numpy's seeding requires."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfng", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    default_features = ",".join(DEFAULT_FEATURES)

    p = sub.add_parser("moments", help="expected feature values of a measure")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--nodes", type=int, required=True, help="number of nodes n")
    p.add_argument("--features", default=default_features,
                   help=f"comma-separated feature keys (default {default_features})")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("features", help="exact feature counts of a graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--features", default=default_features)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("degree-dist", help="degree histogram and CCDF as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_degree_dist)

    p = sub.add_parser("fit", help="fit a measure to a graph's counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=int, required=True, help="number of categories")
    p.add_argument("--k", type=_depth_arg, default="auto",
                   help="recursion depth, or 'auto' to sweep around log_m(n)")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True, help="output measure JSON path")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="sample a graph from a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--method", choices=("fast", "naive", "noisy"), default="fast")
    p.add_argument("--noise", type=float, default=0.0,
                   help="noise amplitude for --method noisy")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True, help="output edge-list path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compare", help="graph counts vs. measure expectations")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--features", default=default_features)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:  # argparse's, or a combination of flags a command rejects
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:  # a missing input, or an output path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except (StalledError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RUNTIME
    except MfngError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except MemoryError as exc:  # e.g. a --nodes whose arrays do not fit
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
