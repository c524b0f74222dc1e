"""Command-line interface: formats, round trips, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfng
import mfng.cli
from mfng import ParseError, SchemaError
from mfng.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _read_edge_lines,
    _read_text,
    main,
    read_edge_list,
    read_measure,
    write_edge_list,
    write_measure,
)


@pytest.fixture
def block_file(tmp_path, block_measure_k4):
    path = tmp_path / "block.json"
    write_measure(block_measure_k4, str(path))
    return str(path)


@pytest.fixture
def graph_file(tmp_path, block_measure_k4):
    g = mfng.naive_sample(120, block_measure_k4, np.random.default_rng(555))
    path = tmp_path / "graph.tsv"
    write_edge_list(g, str(path), ["test graph"])
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------

def test_measure_round_trip(tmp_path, block_measure_k4):
    path = tmp_path / "m.json"
    write_measure(block_measure_k4, str(path))
    back = read_measure(str(path))
    assert np.array_equal(back.probs, block_measure_k4.probs)
    assert np.array_equal(back.lengths, block_measure_k4.lengths)
    assert back.k == block_measure_k4.k


def test_measure_file_preserves_full_precision(tmp_path):
    meas = mfng.make_measure(
        [1 / 3, 2 / 3], [[0.1 + 0.2, 0.5], [0.5, 0.7]], k=3)
    path = tmp_path / "m.json"
    write_measure(meas, str(path))
    back = read_measure(str(path))
    assert back.lengths[0] == meas.lengths[0]
    assert back.probs[0, 0] == meas.probs[0, 0]


def test_measure_file_is_schema_checked(tmp_path):
    path = tmp_path / "bad.json"
    good = {"schema_version": 1, "m": 1, "k": 2, "lengths": [1.0], "probs": [[0.5]]}

    for breakage in (
        lambda d: d.pop("lengths"),
        lambda d: d.update(schema_version=99),
        lambda d: d.update(schema_version=True),
        lambda d: d.update(schema_version=1.0),
        lambda d: d.update(probs=[[0.5], [0.5]]),
        lambda d: d.update(k="three"),
        # JSON booleans are Python ints; none of them is a number here
        lambda d: d.update(m=True),
        lambda d: d.update(k=True),
        lambda d: d.update(lengths=[True]),
        lambda d: d.update(probs=[[True]]),
    ):
        doc = json.loads(json.dumps(good))
        breakage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises((SchemaError, mfng.MfngError)):
            read_measure(str(path))


def test_measure_file_rejects_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        read_measure(str(path))


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------

def test_edge_list_parser_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# header\n\n0\t1\n2 3\n# trailing\n")
    assert read_edge_list(str(path)).tolist() == [[0, 1], [2, 3]]


def read_edge_lines(path):
    """The line parser alone, over the text read_edge_list reads."""
    return _read_edge_lines(path, _read_text(path, ParseError))


# text -> the pairs both parsers return, or the line their ParseError names
PARSER_CASES = {
    "inline comment": ("0 1 # x\n", 1),
    "one column": ("1\n2\n", 1),
    "one column late": ("0 1\n2\n", 2),
    "three columns": ("0 1 2\n3 4 5\n", 1),
    "float field": ("1.0 2\n", 1),
    "beyond int64": ("0 1\n1 99999999999999999999\n", 2),
    "below int64": ("-9223372036854775809 1\n", 1),
    "int64 limits": ("-9223372036854775808 9223372036854775807\n",
                     [[-9223372036854775808, 9223372036854775807]]),
    "crlf": ("0 1\r\n2 3\r\n", [[0, 1], [2, 3]]),
    "header only": ("# nodes: 5\n", []),
    "empty": ("", []),
    "indented comment": ("0 1\n  # note\n2 3\n", [[0, 1], [2, 3]]),
    "hash in a comment": ("# a # b\n0 1\n", [[0, 1]]),
    "signs and blanks": ("+4 -2\n\n   \n007\t1\n", [[4, -2], [7, 1]]),
    "underscore digits": ("1_0 5\n", 1),
    "non-ASCII digits": ("\u0663 4\n", 1),
}


@pytest.mark.parametrize("text, want", PARSER_CASES.values(), ids=PARSER_CASES.keys())
def test_fast_edge_list_parse_matches_the_line_parser(tmp_path, text, want):
    path = tmp_path / "g.tsv"
    path.write_bytes(text.encode())
    if isinstance(want, int):
        for parser in (read_edge_list, read_edge_lines):
            with pytest.raises(ParseError) as err:
                parser(str(path))
            assert err.value.line == want, parser.__name__
        return
    for parser in (read_edge_list, read_edge_lines):
        pairs = parser(str(path))
        assert pairs.dtype == np.int64 and pairs.shape == (len(want), 2), parser.__name__
        assert pairs.tolist() == want, parser.__name__


def no_line_parse(path, text):
    raise AssertionError("fell back to the line parser")


def test_plain_edge_list_takes_the_array_parse(tmp_path, monkeypatch):
    monkeypatch.setattr(mfng.cli, "_read_edge_lines", no_line_parse)
    path = tmp_path / "g.tsv"
    path.write_bytes(b"# mfng sample\n# nodes: 4\n0\t1\r\n\n1\t3\n# end\n")
    assert read_edge_list(str(path)).tolist() == [[0, 1], [1, 3]]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_under_a_compressed_name_is_read_as_text(tmp_path, suffix):
    # np.loadtxt would try to decompress these names and fail
    path = tmp_path / f"g{suffix}"
    path.write_bytes(b"# nodes: 3\n0\t1\n1\t2\n")
    assert read_edge_list(str(path)).tolist() == [[0, 1], [1, 2]]


def test_edge_list_parser_reports_the_bad_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n0\tx\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(str(path))
    assert err.value.line == 2


def test_edge_list_parser_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0 1 2\n")
    with pytest.raises(ParseError):
        read_edge_list(str(path))


def test_written_edges_are_sorted_and_canonical(tmp_path):
    g = mfng.from_edge_list([(5, 2), (1, 0), (2, 5), (3, 1)])
    path = tmp_path / "out.tsv"
    write_edge_list(g, str(path), ["hello"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# hello"
    data = [tuple(map(int, ln.split("\t"))) for ln in lines if not ln.startswith("#")]
    assert data == sorted(data)
    assert all(u < v for u, v in data)


def per_line_bytes(header_lines, graph):
    """The edge-list bytes written one formatted line at a time."""
    lines = [f"# {line}\n" for line in header_lines]
    lines += [f"{u}\t{v}\n" for u, v in graph.edge_array().tolist()]
    return "".join(lines).encode("utf-8")


def test_edge_list_write_matches_per_line_format_across_slices(tmp_path, monkeypatch):
    monkeypatch.setattr(mfng.cli, "_WRITE_SLICE", 3)
    g = mfng.Graph.from_pairs(12, [(0, 11), (3, 1), (2, 9), (5, 4), (7, 10),
                                   (9, 1), (4, 0), (10, 2), (6, 8), (11, 3)])
    assert g.edge_count > 3 and g.edge_count % 3 != 0
    path = tmp_path / "out.tsv"
    write_edge_list(g, str(path), ["a", "b"])
    assert path.read_bytes() == per_line_bytes(["a", "b"], g)


@pytest.mark.parametrize("n", [1, 10, 11, 100_001])
def test_edge_list_write_matches_per_line_format_at_digit_widths(tmp_path, n):
    # Ids one digit shorter and longer than their neighbours, and n - 1,
    # whose width every id is padded to before the zeros are masked out.
    ids = sorted({i for i in (0, 9, 10, n - 1) if i < n})
    g = mfng.Graph.from_pairs(n, [(u, v) for u in ids for v in ids if u < v])
    path = tmp_path / "out.tsv"
    write_edge_list(g, str(path), ["w"])
    assert path.read_bytes() == per_line_bytes(["w"], g)


@pytest.mark.parametrize("n", [0, 5])
def test_graph_without_edges_writes_only_its_header(tmp_path, n):
    path = tmp_path / "out.tsv"
    write_edge_list(mfng.Graph.empty(n), str(path), ["mfng sample", f"nodes: {n}"])
    assert path.read_bytes() == f"# mfng sample\n# nodes: {n}\n".encode()


def test_non_ascii_header_is_written_as_utf8(tmp_path, monkeypatch):
    g = mfng.Graph.from_pairs(3, [(0, 1), (1, 2)])
    header = ["measure: mesure-é.json", "ノード"]
    path = tmp_path / "out.tsv"
    write_edge_list(g, str(path), header)
    assert path.read_bytes() == per_line_bytes(header, g)
    monkeypatch.setattr(mfng.cli, "_read_edge_lines", no_line_parse)
    assert read_edge_list(str(path)).tolist() == [[0, 1], [1, 2]]


def test_write_then_read_gives_back_the_graph(tmp_path):
    # A path through every node keeps them all, so relabelling is the identity.
    rng = np.random.default_rng(8)
    n = 5000
    pairs = np.concatenate([rng.integers(0, n, size=(20_000, 2)),
                            np.column_stack([np.arange(n - 1), np.arange(1, n)])])
    g = mfng.Graph.from_pairs(n, pairs)
    path = tmp_path / "out.tsv"
    write_edge_list(g, str(path), ["round trip"])
    assert mfng.from_edge_list(read_edge_list(str(path))) == g


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_moments_text_output(capsys, block_file):
    code, out, _ = run(capsys, "moments", "--measure", block_file, "--nodes", "100")
    assert code == EXIT_OK
    assert "edges" in out and "edge_std" in out
    em = mfng.edge_moments(read_measure(block_file), 100)
    assert f"{em.mean:.6g}" in out or format(em.mean, ".17g") in out


def test_moments_csv_output(capsys, block_file):
    code, out, _ = run(capsys, "moments", "--measure", block_file,
                       "--nodes", "100", "--format", "csv")
    assert code == EXIT_OK
    assert out.startswith("feature,")
    assert "\r\n" in out


def test_features_command(capsys, graph_file):
    code, out, _ = run(capsys, "features", "--graph", graph_file)
    assert code == EXIT_OK
    g = mfng.from_edge_list(read_edge_list(graph_file))
    assert str(g.edge_count) in out


def test_degree_dist_command(tmp_path, capsys, graph_file):
    out_path = tmp_path / "dd.csv"
    code, _, _ = run(capsys, "degree-dist", "--graph", graph_file,
                     "--out", str(out_path))
    assert code == EXIT_OK
    rows = out_path.read_text().splitlines()
    assert rows[0] == "degree,count,ccdf"
    first = rows[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == 1.0
    # Exact bytes: CRLF rows, 17 significant digits, and the empty graph's
    # one row (a header-only edge list has no nodes).
    for edges, want in [
        ("0 1\n1 2\n0 3\n", b"degree,count,ccdf\r\n0,0,1\r\n1,2,1\r\n2,2,0.5\r\n"),
        ("0 1\n1 2\n",
         b"degree,count,ccdf\r\n0,0,1\r\n1,2,1\r\n2,1,0.33333333333333331\r\n"),
        ("# no edges\n", b"degree,count,ccdf\r\n0,0,0\r\n"),
    ]:
        graph_path = tmp_path / "small.tsv"
        graph_path.write_text(edges)
        code, out, _ = run(capsys, "degree-dist", "--graph", str(graph_path),
                           "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_bytes() == want
        assert out == f"wrote {len(want.splitlines()) - 1} degree rows to {out_path}\n"


def test_sample_fast_is_deterministic(tmp_path, capsys, block_file):
    out = tmp_path / "a.tsv"
    code1, stdout1, _ = run(capsys, "sample", "--measure", block_file,
                            "--nodes", "300", "--seed", "5", "--out", str(out))
    first = out.read_bytes()
    code2, stdout2, _ = run(capsys, "sample", "--measure", block_file,
                            "--nodes", "300", "--seed", "5", "--out", str(out))
    assert code1 == code2 == EXIT_OK
    assert out.read_bytes() == first
    assert stdout1 == stdout2


def test_sample_naive_method(tmp_path, capsys, block_file):
    out = tmp_path / "g.tsv"
    code, stdout, _ = run(capsys, "sample", "--measure", block_file,
                          "--nodes", "80", "--method", "naive",
                          "--seed", "1", "--out", str(out))
    assert code == EXIT_OK
    assert "wrote" in stdout
    g = mfng.from_edge_list(read_edge_list(str(out)))
    assert g.edge_count > 0


@pytest.mark.parametrize("method", ["fast", "naive", "noisy"])
def test_sample_one_node(tmp_path, capsys, block_file, method):
    out = tmp_path / "g.tsv"
    code, stdout, _ = run(capsys, "sample", "--measure", block_file, "--nodes", "1",
                          "--method", method, "--seed", "1", "--out", str(out))
    assert code == EXIT_OK
    assert stdout.endswith("wrote 0 edges on 1 nodes to " + str(out) + "\n")
    header = ["mfng sample", f"measure: {block_file}", f"method: {method}", "nodes: 1",
              "seed: 1"] + (["noise: 0"] if method == "noisy" else [])
    assert out.read_text(encoding="utf-8") == "".join(f"# {line}\n" for line in header)


@pytest.mark.parametrize("method, flag, value", [
    ("fast", "--noise", "0.5"),
    ("naive", "--noise", "0.5"),
    # the fast sampler's accuracy option is gone, for every method
    ("fast", "--accuracy", "4"),
    ("naive", "--accuracy", "4"),
    ("noisy", "--accuracy", "4"),
])
def test_sample_rejects_a_flag_its_method_ignores(tmp_path, capsys, block_file,
                                                  method, flag, value):
    out = tmp_path / "g.tsv"
    code, stdout, err = run(capsys, "sample", "--measure", block_file, "--nodes", "50",
                            "--method", method, flag, value, "--out", str(out))
    assert code == EXIT_USAGE and stdout == ""
    assert err.startswith("usage error:") and flag in err
    assert not out.exists()


def test_noisy_with_zero_amplitude_matches_fast_edges(tmp_path, capsys, block_file):
    fast_out, noisy_out = tmp_path / "f.tsv", tmp_path / "n.tsv"
    run(capsys, "sample", "--measure", block_file, "--nodes", "300",
        "--seed", "5", "--out", str(fast_out))
    run(capsys, "sample", "--measure", block_file, "--nodes", "300",
        "--method", "noisy", "--noise", "0", "--seed", "5", "--out", str(noisy_out))
    strip = lambda p: [ln for ln in p.read_text().splitlines()
                       if not ln.startswith("#")]
    assert strip(fast_out) == strip(noisy_out)


def test_fit_command_round_trips(tmp_path, capsys, graph_file):
    out1, out2 = tmp_path / "fit1.json", tmp_path / "fit2.json"
    code, stdout, _ = run(capsys, "fit", "--graph", graph_file, "--m", "2",
                          "--k", "4", "--restarts", "3", "--seed", "0",
                          "--out", str(out1))
    assert code == EXIT_OK
    assert "objective" in stdout
    run(capsys, "fit", "--graph", graph_file, "--m", "2", "--k", "4",
        "--restarts", "3", "--seed", "0", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    fitted = read_measure(str(out1))  # the output must itself be a valid measure
    assert fitted.m == 2 and fitted.k == 4


def test_compare_command(capsys, tmp_path, block_file, graph_file):
    code, out, _ = run(capsys, "compare", "--graph", graph_file,
                       "--measure", block_file)
    assert code == EXIT_OK
    assert "ratio" in out
    code, out_csv, _ = run(capsys, "compare", "--graph", graph_file,
                           "--measure", block_file, "--format", "csv")
    assert code == EXIT_OK
    assert out_csv.splitlines()[0].startswith("feature,")


# Rows for --features C3,edges,S2,C2,C2: canonical order, the repeat collapsed.
CANONICAL_ROWS = {
    "features": (
        "feature  count\n"
        "nodes    120\n"
        "edges    1122\n"
        "S2       22966\n"
        "C2       1122\n"
        "C3       1536\n"),
    "moments": (
        "feature   expected\n"
        "edges     1174.6676732684236\n"
        "S2        24964.406594697852\n"
        "C2        1174.6676732684236\n"
        "C3        1716.2403971988485\n"
        "edge_std  72.814363904124875\n"),
    "compare": (
        "feature  actual  expected            ratio\n"
        "edges    1122    1174.6676732684236  1.0469408852659747\n"
        "S2       22966   24964.406594697852  1.0870158754113843\n"
        "C2       1122    1174.6676732684236  1.0469408852659747\n"
        "C3       1536    1716.2403971988485  1.1173440085930004\n"),
}


@pytest.mark.parametrize("command", CANONICAL_ROWS)
def test_feature_rows_come_in_canonical_order(capsys, block_file, graph_file, command):
    inputs = {"features": ["--graph", graph_file],
              "moments": ["--measure", block_file, "--nodes", "120"],
              "compare": ["--graph", graph_file, "--measure", block_file]}
    code, out, err = run(capsys, command, *inputs[command],
                         "--features", "C3,edges,S2,C2,C2")
    assert (code, err) == (EXIT_OK, "")
    assert out == CANONICAL_ROWS[command]
    if command != "moments":
        # The count column against a dense recount of the graph_file sample.
        edges = read_edge_list(graph_file)
        a = np.zeros((120, 120), dtype=np.int64)
        a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1
        deg = a.sum(axis=1)
        m = int(a.sum()) // 2
        dense = {"edges": m, "S2": int((deg * (deg - 1) // 2).sum()), "C2": m,
                 "C3": int(np.trace(a @ a @ a)) // 6}
        rows = [line.split() for line in out.splitlines()[1:]]
        assert {row[0]: int(row[1]) for row in rows if row[0] != "nodes"} == dense


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_missing_argument(capsys):
    code, _, err = run(capsys, "moments", "--nodes", "10")
    assert code == EXIT_USAGE
    assert "measure" in err


def test_usage_error_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_usage_error_bad_depth(capsys, graph_file, tmp_path):
    code, _, err = run(capsys, "fit", "--graph", graph_file, "--m", "2",
                       "--k", "banana", "--out", str(tmp_path / "x.json"))
    assert code == EXIT_USAGE
    assert err.startswith("usage error:")


@pytest.mark.parametrize("command", [
    ("sample", "--measure", "{measure}", "--nodes", "50"),
    ("fit", "--graph", "{graph}", "--m", "2", "--k", "4", "--restarts", "1"),
])
@pytest.mark.parametrize("seed", ["-1", "2.5"])
def test_usage_error_bad_seed(capsys, tmp_path, block_file, graph_file, command, seed):
    argv = [a.format(measure=block_file, graph=graph_file) for a in command]
    code, _, err = run(capsys, *argv, "--seed", seed, "--out", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    assert err.startswith("usage error:") and "Traceback" not in err


def test_data_error_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "features", "--graph", str(tmp_path / "nope.tsv"))
    assert code == EXIT_DATA


def test_data_error_id_beyond_int64(capsys, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0 1\n1 99999999999999999999\n")
    code, out, err = run(capsys, "features", "--graph", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert f"{path}:2:" in err


def test_header_only_edge_list_is_the_empty_graph(capsys, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# mfng sample\n# nodes: 0\n")
    code, out, err = run(capsys, "features", "--graph", str(path),
                         "--features", "edges,C3")
    assert code == EXIT_OK
    assert err == ""
    assert out.split() == ["feature", "count", "nodes", "0", "edges", "0", "C3", "0"]


def test_data_error_invalid_measure(capsys, tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({
        "schema_version": 1, "m": 2, "k": 2,
        "lengths": [0.5, 0.5],
        "probs": [[0.5, 0.6], [0.4, 0.5]],
    }))
    code, _, err = run(capsys, "moments", "--measure", str(path), "--nodes", "10")
    assert code == EXIT_DATA
    assert "symmetric" in err


@pytest.mark.parametrize("lengths, probs", [
    ([1], [[10**400]]),
    ([10**400], [[0.5]]),
])
def test_data_error_number_beyond_the_float_range(capsys, tmp_path, lengths, probs):
    # JSON reads the integer exactly; it once escaped as a bare OverflowError
    # and exited as a runtime error.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "schema_version": 1, "m": 1, "k": 2, "lengths": lengths, "probs": probs,
    }))
    code, out, err = run(capsys, "moments", "--measure", str(path), "--nodes", "10")
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "rectangular array of numbers" in err


@pytest.mark.parametrize("field", ["lengths", "probs"])
@pytest.mark.parametrize("bad", ["0.5", True, None], ids=["string", "bool", "null"])
@pytest.mark.parametrize("whole", [True, False], ids=["field", "entry"])
def test_data_error_measure_numbers_that_are_not_numbers(capsys, tmp_path, field, bad, whole):
    # The measure's own checks read the file's numbers, in place of the whole
    # field or as its last entry ([0.5, true] for the lengths).
    doc = {"schema_version": 1, "m": 2, "k": 2, "lengths": [0.5, 0.5],
           "probs": [[0.5, 0.5], [0.5, 0.5]]}
    if whole:
        doc[field] = bad
    else:
        (doc[field][-1] if field == "probs" else doc[field])[-1] = bad
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "moments", "--measure", str(path), "--nodes", "10")
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_data_error_edge_list_not_utf8(capsys, tmp_path):
    path = tmp_path / "g.tsv"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    code, out, err = run(capsys, "features", "--graph", str(path))
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith(f"error: {path}:2: not UTF-8")


def test_data_error_measure_not_utf8(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"m": \xff}')
    code, out, err = run(capsys, "moments", "--measure", str(path), "--nodes", "10")
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ")


def test_data_error_expected_edges_beyond_the_box_budget(capsys, tmp_path, block_file,
                                                         monkeypatch):
    # About 7,400 expected edges against a budget of 100 box draws: refused
    # before any box is drawn.
    def no_box_draws(*args, **kwargs):
        raise AssertionError("a box was drawn")

    monkeypatch.setattr(mfng.sampler, "_MAX_EXPECTED_BOXES", 100)
    monkeypatch.setattr(mfng.sampler.QTable, "sample_pairs", no_box_draws)
    code, out, err = run(capsys, "sample", "--measure", block_file, "--nodes", "300",
                         "--out", str(tmp_path / "g.tsv"))
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "box draws" in err


def test_data_error_boolean_measure(capsys, tmp_path):
    path = tmp_path / "bools.json"
    path.write_text(json.dumps({
        "schema_version": 1, "m": True, "k": True,
        "lengths": [True], "probs": [[True]],
    }))
    code, out, err = run(capsys, "moments", "--measure", str(path), "--nodes", "10")
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ("sample", "--measure", "{measure}", "--nodes", "50"),
    ("degree-dist", "--graph", "{graph}"),
    ("fit", "--graph", "{graph}", "--m", "2", "--k", "4", "--restarts", "1"),
])
def test_data_error_output_is_a_directory(capsys, tmp_path, block_file, graph_file,
                                          command):
    argv = [a.format(measure=block_file, graph=graph_file) for a in command]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == EXIT_DATA
    assert err.startswith("error: ") and "Traceback" not in err


def test_runtime_error_stalled_sampler(capsys, tmp_path):
    path = tmp_path / "m.json"
    write_measure(
        mfng.make_measure([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]], k=1), str(path))
    code, _, err = run(capsys, "sample", "--measure", str(path), "--nodes", "6",
                       "--seed", "13", "--out", str(tmp_path / "g.tsv"))
    assert code == EXIT_RUNTIME
    assert "consecutive" in err


def test_runtime_error_out_of_memory(capsys, tmp_path, block_file, monkeypatch):
    # A real allocation this large can succeed lazily, so the sampler raises.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 13.8 TiB")

    monkeypatch.setattr(mfng.cli, "fast_sample", no_memory)
    code, out, err = run(capsys, "sample", "--measure", block_file, "--nodes", "10",
                         "--out", str(tmp_path / "g.tsv"))
    assert code == EXIT_RUNTIME
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 13.8 TiB\n"


def test_runtime_error_overflowing_expectation_names_the_feature(capsys, block_file):
    code, out, err = run(capsys, "moments", "--measure", block_file,
                         "--features", "edges,S200", "--nodes", "1000000")
    assert code == EXIT_RUNTIME
    assert out == ""
    assert err == "error: expected S200 count on n=1000000 nodes overflows a float\n"


# ---------------------------------------------------------------------------
# numpy-only runtime: nothing in the package loads scipy
# ---------------------------------------------------------------------------

# Executes each statement of the JSON list in sys.argv[1] in one namespace
# and, on its last stdout line, prints the scipy modules loaded after each.
_SCIPY_PROBE = """
import json, sys
loaded = []
for statement in json.loads(sys.argv[1]):
    exec(statement)
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(json.dumps(loaded))
"""


def scipy_loaded_after(*statements):
    """Run statements in a fresh interpreter; scipy modules loaded after each."""
    src = str(Path(mfng.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(statements)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def cli_statement(*argv):
    return f"assert mfng.cli.main({list(argv)!r}) == 0"


def test_cli_commands_start_without_scipy(tmp_path, block_file, graph_file):
    loaded = scipy_loaded_after(
        "import mfng, mfng.cli",
        cli_statement("sample", "--measure", block_file, "--nodes", "60",
                      "--seed", "3", "--out", str(tmp_path / "s.tsv")),
        cli_statement("features", "--graph", graph_file),
        cli_statement("degree-dist", "--graph", graph_file,
                      "--out", str(tmp_path / "d.csv")),
        cli_statement("compare", "--graph", graph_file, "--measure", block_file),
        cli_statement("moments", "--measure", block_file, "--nodes", "100"),
        cli_statement("fit", "--graph", graph_file, "--m", "2", "--k", "4",
                      "--restarts", "1", "--out", str(tmp_path / "f.json")),
    )
    assert loaded == [[]] * 7


def test_expected_degree_counts_loads_no_scipy(block_file):
    loaded = scipy_loaded_after(
        "import mfng, mfng.cli",
        f"mfng.expected_degree_counts(mfng.cli.read_measure({block_file!r}), 50)",
    )
    assert loaded == [[], []]


def test_no_module_imports_scipy():
    package = Path(mfng.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]] if node.level == 0 else []
            else:
                continue
            assert "scipy" not in roots, f"{path.name}:{node.lineno} imports scipy"
