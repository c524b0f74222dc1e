"""Self-test of the benchmark: python3 -m pytest -q perfbench/test_run.py

Runs every workload scaled down, untraced and traced, through ``run.main``
and checks that each metric is printed with its unit.  Then corrupts the
outputs of one real repetition and checks that the output checks catch it.
"""

import dataclasses
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


# Scaled-down sizes: every layer still runs, in seconds rather than minutes.
SMALL_NODES = {"sparse-sample-count": 5000, "skewed-noisy-count": 5000, "fit-recover": 1500}
SMALL_RESTARTS = 3


def _small(wl: run.Workload) -> run.Workload:
    return dataclasses.replace(wl, nodes=SMALL_NODES[wl.name], restarts=SMALL_RESTARTS)


def _bench(trace: int, monkeypatch, capsys) -> tuple[list[dict], dict]:
    small = {name: _small(wl) for name, wl in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)
    code = run.main(["--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(line)["report"] for line in lines if line.startswith('{"report"')]
    return reports, json.loads(lines[-1])


def test_benchmark_json_matches_run_py():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_paused_child_runs_to_its_end(tmp_path):
    busy = ("import time\nend = time.process_time() + 0.7\n"
            "while time.process_time() < end: pass\nraise SystemExit(3)")
    child = run.run_child("busy", [sys.executable, "-c", busy], str(tmp_path))
    assert child.code == 3
    assert 0.7 <= child.cpu_s <= child.wall_s + 0.05
    assert child.reference_s > 0 and math.isfinite(child.scaled_cpu_s)


def test_untraced_run_prints_every_end_to_end_metric(monkeypatch, capsys):
    reports, result = _bench(0, monkeypatch, capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [rep["workload"] for rep in reports] == list(run.WORKLOADS)
    for rep in reports:
        wl = run.WORKLOADS[rep["workload"]]
        expected = {**run.END_TO_END, **run.REPORTED}
        expected.update({name: "s" for name, step in run.STEP_TIMES.items()
                         if step in wl.steps})
        if "fit" in wl.steps:
            expected["fit_objective"] = "1"
        got = {name: entry["unit"] for name, entry in rep["metrics"].items()}
        assert got == expected
        assert all(entry["value"] > 0 for entry in rep["metrics"].values())
        assert rep["ops_failed_ratio"] == 0
        assert set(rep["metadata"]) == {"git_commit", "seed", "python", "numpy", "scipy",
                                        "cpu_model", "nproc", "loadavg_start"}
        for name, unit in run.END_TO_END.items():
            assert result["metrics"][f"{wl.name}.{name}"]["unit"] == unit


def test_traced_run_prints_every_per_layer_metric(monkeypatch, capsys):
    reports, result = _bench(1, monkeypatch, capsys)
    assert result["correct"] and result["failed"] == 0
    by_name = {rep["workload"]: rep["metrics"] for rep in reports}
    for metrics in by_name.values():
        assert {name: entry["unit"] for name, entry in metrics.items()} == run.PER_LAYER
    # each layer shows up on the workload that exercises it
    assert by_name["sparse-sample-count"]["sampler.boxes_drawn"]["value"] > 0
    assert by_name["skewed-noisy-count"]["sampler.noise_schedule.s"]["value"] > 0
    assert by_name["skewed-noisy-count"]["features.degree_distribution.s"]["value"] > 0
    fit = by_name["fit-recover"]
    assert fit["fit.nfev"]["value"] > 0 and fit["fit.restarts"]["value"] > 0
    assert fit["measure.expected_t_cliques.calls"]["value"] > 0
    assert 0 < fit["measure.share_of_fit"]["value"] < 1


@pytest.fixture(scope="module")
def iteration(tmp_path_factory):
    wl = _small(run.WORKLOADS["skewed-noisy-count"])
    it = run.run_iteration(wl, 5, str(tmp_path_factory.mktemp("it")), traced=False)
    assert it.failures == {}
    return wl, it


def _reverify(wl, it):
    it.failures, it.counts = {}, {}
    run.verify(wl, it)
    return it.failures


def _rewrite(path, transform):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(transform(text))
    return text


def _drop_first_edge(text):
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return "".join(lines[:first] + lines[first + 1:])


def test_missing_edge_in_the_edge_file_fails_the_checks(iteration):
    wl, it = iteration
    path = os.path.join(it.workdir, "graph.txt")
    original = _rewrite(path, _drop_first_edge)
    try:
        failures = _reverify(wl, it)
    finally:
        _rewrite(path, lambda _: original)
    assert {"sample", "features", "degree-dist"} <= set(failures)
    assert _reverify(wl, it) == {}


def test_garbage_in_the_edge_file_fails_every_command(iteration):
    wl, it = iteration
    path = os.path.join(it.workdir, "graph.txt")
    original = _rewrite(path, lambda text: text + "7\tseven\n")
    try:
        failures = _reverify(wl, it)
    finally:
        _rewrite(path, lambda _: original)
    assert set(failures) == {"sample", "features", "degree-dist"}


def test_wrong_feature_line_fails_the_features_check(iteration):
    wl, it = iteration
    child = it.child("features")
    original = child.stdout
    child.stdout = re.sub(r"^(C3\s+)(\d+)", lambda m: f"{m[1]}{int(m[2]) + 1}",
                          original, flags=re.M)
    assert child.stdout != original
    try:
        failures = _reverify(wl, it)
    finally:
        child.stdout = original
    assert set(failures) == {"features"}
