"""The package's public names: the library surface the README and the CLI
build on, plus the error classes; test-only helpers stay in their modules.
"""

import ast
import json
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import mfng
from mfng import errors
from mfng.cli import main, write_measure
from mfng.measure import NoiseSchedule, max_depth
from mfng.sampler import make_noise_schedule

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
}


def test_public_names_are_the_documented_surface():
    error_classes = {name for name, value in vars(errors).items()
                     if isinstance(value, type) and issubclass(value, mfng.MfngError)}
    # Submodules show up in dir() once anything imports them; they are not
    # re-exports.
    public = sorted(name for name in dir(mfng) if not name.startswith("_")
                    and not isinstance(getattr(mfng, name), types.ModuleType))
    assert public == sorted(LIBRARY_SURFACE | error_classes)


def test_the_readme_library_example_runs_as_written():
    # The README's python block, run verbatim, so that it keeps up with the API.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


_MEASURE = mfng.make_measure([0.3, 0.7], [[0.9, 0.4], [0.4, 0.6]], k=3)
_STAR = mfng.Graph.from_pairs(7, [(0, leaf) for leaf in range(1, 7)])

# Each call takes one integer argument x, an n, d, t or m (FitConfig: every
# field), and a value of x it accepts.  A numpy m once overflowed max_depth's
# powers: max_depth(np.int64(3)) read 43, and at m = 2 it never returned.
INTEGER_CALLS = {
    "naive_sample": (lambda x: mfng.naive_sample(x, _MEASURE, 0), 5),
    "fast_sample": (lambda x: mfng.fast_sample(x, _MEASURE, 0), 5),
    "noisy_sample": (lambda x: mfng.noisy_sample(x, _MEASURE, 0.05, 0), 5),
    "Graph": (lambda x: mfng.Graph(x, [1, 7]), 5),
    "count_stars d": (lambda x: mfng.count_stars(_STAR, x), 5),
    "expected_edges": (lambda x: mfng.expected_edges(_MEASURE, x), 5),
    "expected_d_stars n": (lambda x: mfng.expected_d_stars(_MEASURE, x, 2), 5),
    "expected_d_stars d": (lambda x: mfng.expected_d_stars(_MEASURE, 10, x), 5),
    "expected_t_cliques n": (lambda x: mfng.expected_t_cliques(_MEASURE, x, 3), 5),
    "expected_t_cliques t": (lambda x: mfng.expected_t_cliques(_MEASURE, 10, x), 5),
    "expected_feature_vector": (lambda x: mfng.expected_feature_vector(_MEASURE, x), 5),
    "edge_moments": (lambda x: mfng.edge_moments(_MEASURE, x), 5),
    "expected_degree_counts": (lambda x: mfng.expected_degree_counts(_MEASURE, x), 5),
    "estimate_clique_number": (lambda x: mfng.estimate_clique_number(_MEASURE, x), 5),
    "max_depth": (max_depth, 3),
    "fit": (lambda x: mfng.fit(mfng.FeatureVector({"edges": 4, "S2": 7}), x,
                               mfng.FitConfig(m=2, restarts=2)), 5),
    "depth_candidates": (lambda x: mfng.FitConfig(m=2).depth_candidates(x), 5),
    "FitConfig": (lambda x: mfng.FitConfig(m=x, k=x, restarts=x, seed=x), 2),
    "GeneratingMeasure m": (lambda x: mfng.GeneratingMeasure(
        m=x, k=3, lengths=_MEASURE.lengths, probs=_MEASURE.probs), 2),
    "Graph.neighbors": (_STAR.neighbors, 0),
}


@pytest.mark.parametrize("call, good", INTEGER_CALLS.values(), ids=INTEGER_CALLS.keys())
def test_integer_arguments_take_integers_only(call, good):
    # A float, a bool or a string is not an integer, even one equal to it.
    for bad in (2.5, np.float64(3.0), True, "5"):
        with pytest.raises(errors.DomainError):
            call(bad)
    # A numpy integer is read as the int it holds: same value, same types.
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


@pytest.mark.parametrize("v", [-1, 7])
def test_neighbors_takes_a_node_of_the_graph(v):
    # Nodes are 0 .. n-1; -1 and n once gave an empty neighbor list.
    with pytest.raises(errors.DomainError):
        _STAR.neighbors(v)


_HALF = [[0.5, 0.5], [0.5, 0.5]]

# Each call takes one argument x made of real numbers (an array, or a
# scalar), a value of x it accepts (None: the call keeps x as given), and
# the typed error it raises for anything else.
REAL_CALLS = {
    "make_measure lengths": (lambda x: mfng.make_measure(x, _HALF, 2), [0.5, 0.5],
                             errors.LengthVectorError),
    "make_measure probs": (lambda x: mfng.make_measure([0.5, 0.5], x, 2),
                           [[1.0, 0.5], [0.5, 0.0]], errors.ProbabilityRangeError),
    "GeneratingMeasure lengths": (
        lambda x: mfng.GeneratingMeasure(m=2, k=2, lengths=x, probs=_HALF), [0.5, 0.5],
        errors.LengthVectorError),
    "GeneratingMeasure probs": (
        lambda x: mfng.GeneratingMeasure(m=2, k=2, lengths=[0.5, 0.5], probs=x),
        [[1.0, 0.5], [0.5, 0.0]], errors.ProbabilityRangeError),
    "NoiseSchedule level matrix": (lambda x: NoiseSchedule((_HALF, x), [0.0, 0.0], [0.5, 0.5]),
                                   [[1.0, 0.5], [0.5, 0.0]], errors.ProbabilityRangeError),
    "NoiseSchedule lengths": (lambda x: NoiseSchedule((_HALF,), [0.0], x), [0.5, 0.5],
                              errors.LengthVectorError),
    "NoiseSchedule offsets": (lambda x: NoiseSchedule((_HALF, _HALF), x, [0.5, 0.5]),
                              [0.0, -0.25], errors.DomainError),
    "make_noise_schedule b": (lambda x: make_noise_schedule(_MEASURE, x, 0), 0.25,
                              errors.DomainError),
    "noisy_sample b": (lambda x: mfng.noisy_sample(50, _MEASURE, x, 0), 0.25, errors.DomainError),
    "FeatureVector value": (lambda x: mfng.FeatureVector({"edges": x}), None, errors.DomainError),
    "fit target": (lambda x: mfng.fit(mfng.FeatureVector({"edges": x, "S2": 7}), 10,
                                      mfng.FitConfig(m=2, restarts=2)), 4.0, errors.DomainError),
}


def _with_last(value, entry):
    """A nested list value with its last entry replaced, or entry itself
    for a scalar value."""
    return [*value[:-1], _with_last(value[-1], entry)] if np.ndim(value) else entry


def _numpy_form(value):
    """A nested list value with every whole entry a numpy int and every
    other a numpy float."""
    if np.ndim(value):
        return [_numpy_form(entry) for entry in value]
    return np.int64(value) if float(value).is_integer() else np.float64(value)


@pytest.mark.parametrize("call, good, error", REAL_CALLS.values(), ids=REAL_CALLS.keys())
def test_real_arguments_take_real_numbers_only(call, good, error):
    # A string, a bool or None is not a real number, in place of the whole
    # argument or as one entry of it, as in [0.5, True].
    for bad in ("0.5", True, np.bool_(True), None):
        for value in (bad, _with_last(good, bad)):
            with pytest.raises(error):
                call(value)
    # Numpy ints and floats are read as the floats they hold.
    if good is not None:
        assert pickle.dumps(call(_numpy_form(good))) == pickle.dumps(call(good))


def test_feature_values_are_kept_as_given():
    # FeatureVector keeps each value as given; an exact integer count beyond
    # the float range is still a count.
    assert mfng.FeatureVector({"edges": 10 ** 400}).value("edges") == 10 ** 400
    assert type(mfng.FeatureVector({"edges": np.int64(3)}).value("edges")) is np.int64


MODEL_CALLS = {
    "expected_edges": lambda model: mfng.expected_edges(model, 10),
    "expected_d_stars": lambda model: mfng.expected_d_stars(model, 10, 2),
    "expected_t_cliques": lambda model: mfng.expected_t_cliques(model, 10, 3),
    "expected_feature_vector": lambda model: mfng.expected_feature_vector(model, 10),
    "edge_moments": lambda model: mfng.edge_moments(model, 10),
    "edge_survival_factor": mfng.edge_survival_factor,
    "expected_degree_counts": lambda model: mfng.expected_degree_counts(model, 10),
    "estimate_clique_number": lambda model: mfng.estimate_clique_number(model, 1),
    "naive_sample": lambda model: mfng.naive_sample(10, model, 0),
    "fast_sample": lambda model: mfng.fast_sample(10, model, 0),
    "noisy_sample": lambda model: mfng.noisy_sample(10, model, 0.1, 0),
}


@pytest.mark.parametrize("call", MODEL_CALLS.values(), ids=MODEL_CALLS.keys())
def test_a_model_is_a_measure_or_a_schedule(call):
    # Each once raised AttributeError; the measure's matrix alone is not a model.
    for bad in ("abc", None, _MEASURE.probs):
        with pytest.raises(errors.DomainError):
            call(bad)


def test_noise_needs_a_measure():
    # A schedule of several levels has no one matrix to perturb.
    schedule = make_noise_schedule(_MEASURE, 0.1, 0)
    with pytest.raises(errors.DomainError):
        mfng.noisy_sample(10, schedule, 0.1, 0)


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


def test_only_the_model_reader_tells_a_measure_from_a_schedule():
    # measure._model_levels reads either model as (level matrices, lengths,
    # depth), one branch for each, and refuses anything else; closed forms
    # and samplers go through it.  oracle.py is the independent reference
    # and reads the models itself.
    package = Path(mfng.__file__).parent
    models = {"GeneratingMeasure", "NoiseSchedule"}
    branches = []
    for path in sorted(package.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("isinstance", "issubclass")
                        and models & {getattr(name, "id", getattr(name, "attr", None))
                                      for name in ast.walk(node.args[1])}):
                    branches.append((path.name, getattr(top, "name", None)))
    assert branches == [("measure.py", "_model_levels")] * 2


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
