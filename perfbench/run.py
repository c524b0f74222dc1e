"""End-to-end benchmark of the mfng CLI pipelines, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each CLI command runs as its own ``python -m mfng ...`` child, one at a time,
against the package in ``src/`` of the checkout this file sits in.  With
``--trace 0`` the workload's pipeline is repeated on ``--seed`` for about
``--seconds`` of measured time and the end-to-end metrics are medians over
the repetitions.  With ``--trace 1`` one untraced
and one traced repetition run on the same seed; the traced children go
through ``launch.py``, which records spans at the layer boundaries, and the
per-layer metrics come from those spans.  ``--workload all`` runs every
workload in turn.

Every output is checked against an independent recount (``checks.py``) made
outside the timed region.  The last line of standard output is the result
object; the line before it is a report with run metadata and every metric,
including those that exist on one workload only.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import itertools
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
# The speed reference (see reference_work): how often a child is paused to
# run it, and its CPU time at the nominal speed the gated times are scaled to.
SPEED_INTERVAL_S = 0.1
REFERENCE_NOMINAL_S = 0.0025

BLOCK = ([0.25, 0.75], [[0.59, 0.43], [0.43, 0.78]])
SKEWED = ([0.2, 0.8], [[1.0, 0.55], [0.55, 0.15]])


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    lengths: list
    probs: list
    k: int
    nodes: int
    method: str
    steps: tuple  # commands after `sample`
    counting_step: str  # the step that re-reads and counts the graph
    noise: float = 0.0
    restarts: int = 10


WORKLOADS = {w.name: w for w in (
    Workload("sparse-sample-count", *BLOCK, k=19, nodes=100_000, method="fast",
             steps=("features",), counting_step="features"),
    Workload("skewed-noisy-count", *SKEWED, k=7, nodes=50_000, method="noisy",
             noise=0.05, steps=("features", "degree-dist"), counting_step="features"),
    Workload("fit-recover", *BLOCK, k=10, nodes=2000, method="naive",
             steps=("fit", "compare"), counting_step="compare"),
)}

# name -> unit.  The gated end-to-end metrics of every workload.  Their
# times, setup_s included, are the children's own CPU seconds scaled to the
# nominal speed of reference_work (Child.scaled_cpu_s).
END_TO_END = {
    "setup_s": "s",
    "pipeline_cpu_s": "s",
    "sample_edges_per_cpu_s": "edges/s",
    "count_edges_per_cpu_s": "edges/s",
    "peak_rss_mb": "MB",
}
# Reported, not gated: unscaled CPU and wall-clock figures and the edge count.
REPORTED = {
    "setup_raw_cpu_s": "s",
    "pipeline_raw_cpu_s": "s",
    "setup_wall_s": "s",
    "pipeline_s": "s",
    "sample_edges_per_s": "edges/s",
    "count_edges_per_s": "edges/s",
    "edges": "count",
}
# Reported on the workloads that run the step: its wall seconds, and for
# `fit` the winning objective (unit 1).
STEP_TIMES = {"degree_dist_s": "degree-dist", "fit_s": "fit", "compare_s": "compare"}
PER_LAYER = {
    "cli.write_edge_list.s": "s",
    "cli.read_edge_list.s": "s",
    "cli.edge_lines": "count",
    "cli.nodes_lost": "count",
    "sampler.fast_sample.s": "s",
    "sampler.noisy_sample.s": "s",
    "sampler.naive_sample.s": "s",
    "sampler.noise_schedule.s": "s",
    "sampler.box_draw.s": "s",
    "sampler.boxes_drawn": "count",
    "sampler.category_index.s": "s",
    "sampler.category_lookup.s": "s",
    "sampler.csr_build.s": "s",
    "sampler.placement_self_s": "s",
    "sampler.edges_placed": "count",
    "sampler.edges_per_box": "1",
    "features.from_edge_list.s": "s",
    "features.csr_build.s": "s",
    "features.count_stars.s": "s",
    "features.count_triangles.s": "s",
    "features.count_4cliques.s": "s",
    "features.degree_distribution.s": "s",
    "features.c3": "count",
    "features.c4": "count",
    "features.max_degree": "count",
    "fit.fit.s": "s",
    "fit.restarts": "count",
    "fit.restart_s": "s",
    "fit.nfev": "count",
    "fit.eval_us": "us",
    "fit.converged_ratio": "1",
    "fit.optimizer_self_s": "s",
    "fit.objective": "1",
    "measure.expected_edges.calls": "count",
    "measure.expected_edges.s": "s",
    "measure.expected_d_stars.calls": "count",
    "measure.expected_d_stars.s": "s",
    "measure.expected_t_cliques.calls": "count",
    "measure.expected_t_cliques.s": "s",
    "measure.share_of_fit": "1",
    "measure.expected_feature_vector.s": "s",
    "trace.overhead_s": "s",
}
SAMPLER_SPANS = ("sampler.fast_sample", "sampler.noisy_sample", "sampler.naive_sample")
MOMENT_SPANS = ("measure.expected_edges", "measure.expected_d_stars",
                "measure.expected_t_cliques")


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Child:
    step: str
    code: int
    wall_s: float
    cpu_s: float
    reference_s: float  # mean CPU time of reference_work while the child ran
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def scaled_cpu_s(self) -> float:
        """CPU seconds rescaled to the nominal speed of the reference work."""
        return self.cpu_s * REFERENCE_NOMINAL_S / self.reference_s


_RNG = np.random.default_rng(0)
_REF_FLOATS = _RNG.random(40_000)
_REF_SETS = [np.sort(_RNG.choice(2000, 24, replace=False)) for _ in range(81)]


def reference_work() -> float:
    """CPU seconds of a fixed job made of what the mfng commands spend their
    time on: a dict build, a numpy sort and short sorted-set intersections.

    On a shared VM the speed of a core can drift by 40% over seconds to
    minutes, with the load of the host's other tenants.  A child's own CPU
    time carries that drift; its ratio to this job's time, taken while the
    child runs, carries much less.
    """
    start = time.process_time()
    _ = {i: i for i in range(16_000)}
    np.sort(_REF_FLOATS)
    for a, b in zip(_REF_SETS, _REF_SETS[1:]):
        np.intersect1d(a, b, assume_unique=True)
    return time.process_time() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(step: str, argv: list, cwd: str, pause: bool = True) -> Child:
    """Run argv to completion and time it.

    CPU time (user plus system) and max RSS are the child's own, from wait4;
    CPU time leaves out the time the child waits for a core.  With pause,
    every SPEED_INTERVAL_S the child is stopped (SIGSTOP), reference_work
    runs in this process while nothing else of the benchmark does, and the
    child is continued: the samples follow the host's speed over the
    child's whole life, and never compete with it.  Wall time leaves the
    pauses out.  See recount_file for why this process keeps its own memory
    small.
    """
    out_path = os.path.join(cwd, f"{step}.stdout")
    err_path = os.path.join(cwd, f"{step}.stderr")
    samples, paused = [], 0.0
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                if select.select([pidfd], [], [], SPEED_INTERVAL_S if pause else None)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break  # it ended before the stop reached it
                stopped = time.perf_counter()
                samples.append(reference_work())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stopped
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not samples:
        samples.append(reference_work())
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return Child(step, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 statistics.fmean(samples), usage.ru_maxrss / 1024.0, stdout, stderr)


def write_measure_json(wl: Workload, path: str) -> None:
    doc = {"schema_version": 1, "m": len(wl.lengths), "k": wl.k,
           "lengths": wl.lengths, "probs": wl.probs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def measure_setup(wl: Workload, workdir: str) -> list[dict]:
    """Fresh interpreter to `import mfng.cli` done, plus the measure JSON write.

    Returns wall, CPU and scaled CPU seconds per repeat.  Each of the
    SETUP_REPEATS children also confirms that the package comes from src/ of
    this checkout.
    """
    script = "import mfng.cli, sys; sys.stdout.write(mfng.cli.__file__)"
    times = []
    for _ in range(SETUP_REPEATS):
        wall, cpu = time.perf_counter(), time.process_time()
        write_measure_json(wl, os.path.join(workdir, "measure.json"))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        child = run_child("setup", [sys.executable, "-c", script], workdir)
        if child.code != 0 or not child.stdout.startswith(SRC + os.sep):
            raise SystemExit(f"mfng did not import from {SRC}: {child.stderr or child.stdout}")
        times.append({"wall_s": wall + child.wall_s, "cpu_s": cpu + child.cpu_s,
                      "scaled_cpu_s": cpu + child.scaled_cpu_s,
                      "reference_ms": 1e3 * child.reference_s})
    return times


# ---------------------------------------------------------------------------
# one repetition of a workload's pipeline
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Iteration:
    seed: int
    workdir: str
    children: list
    spans: list  # per traced child: list of spans
    failures: dict = dataclasses.field(default_factory=dict)  # step -> reason
    counts: dict = dataclasses.field(default_factory=dict)
    fit_objective: float = math.nan

    @property
    def pipeline_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def pipeline_cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def pipeline_scaled_cpu_s(self) -> float:
        return sum(c.scaled_cpu_s for c in self.children)

    def child(self, step: str):
        return next((c for c in self.children if c.step == step), None)


def steps_of(wl: Workload) -> tuple:
    return ("sample", *wl.steps)


def commands(wl: Workload, seed: int) -> list:
    sample = ["sample", "--measure", "measure.json", "--method", wl.method,
              "--nodes", str(wl.nodes), "--seed", str(seed), "--out", "graph.txt"]
    if wl.method == "noisy":
        sample += ["--noise", repr(wl.noise)]
    table = {
        "features": ["features", "--graph", "graph.txt"],
        "degree-dist": ["degree-dist", "--graph", "graph.txt", "--out", "degrees.csv"],
        "fit": ["fit", "--graph", "graph.txt", "--m", str(len(wl.lengths)), "--k", "auto",
                "--restarts", str(wl.restarts), "--seed", "0", "--out", "fitted.json"],
        "compare": ["compare", "--graph", "graph.txt", "--measure", "fitted.json"],
    }
    return [("sample", sample)] + [(step, table[step]) for step in wl.steps]


def run_iteration(wl: Workload, seed: int, workdir: str, traced: bool) -> Iteration:
    os.makedirs(workdir, exist_ok=True)
    write_measure_json(wl, os.path.join(workdir, "measure.json"))
    children, span_files = [], []
    for step, args in commands(wl, seed):
        if traced:
            spans_path = os.path.join(workdir, f"{step}.spans.json")
            span_files.append(spans_path)
            argv = [sys.executable, os.path.join(HERE, "launch.py"), SRC, spans_path,
                    f"{wl.name}/{seed}/{step}", *args]
        else:
            argv = [sys.executable, "-m", "mfng", *args]
        child = run_child(step, argv, workdir, pause=not traced)
        children.append(child)
        if child.code != 0:
            break
    spans = []
    for path in span_files:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                spans.append(json.load(fh)["spans"])
    it = Iteration(seed, workdir, children, spans)
    verify(wl, it)
    return it


def verify(wl: Workload, it: Iteration) -> None:
    """Check every command's output against the independent recount."""
    steps = steps_of(wl)
    for step in steps:
        child = it.child(step)
        if child is None:
            it.failures[step] = "not run: an earlier command failed"
        elif child.code != 0:
            it.failures[step] = f"exit code {child.code}: {child.stderr.strip()[-300:]}"
    if "sample" in it.failures:
        return
    try:
        it.counts = recount_file(os.path.join(it.workdir, "graph.txt"))
    except checks.CheckError as exc:
        for step in steps:
            it.failures.setdefault(step, f"edge list unreadable: {exc}")
        return
    band = checks.expected_edge_range(wl.nodes, wl.lengths, wl.probs, wl.k, wl.noise)
    verifiers = {
        "sample": lambda c: checks.check_sample_output(c.stdout, it.counts, wl.nodes, band),
        "features": lambda c: checks.check_features_output(c.stdout, it.counts),
        "degree-dist": lambda c: checks.check_degree_csv(
            _read(os.path.join(it.workdir, "degrees.csv")), it.counts),
        "fit": lambda c: setattr(it, "fit_objective", checks.parse_fit_objective(c.stdout)),
        "compare": lambda c: checks.check_compare_output(c.stdout, it.counts),
    }
    for step in steps:
        if step in it.failures:
            continue
        try:
            verifiers[step](it.child(step))
        except (checks.CheckError, OSError, ValueError) as exc:
            it.failures[step] = f"output check failed: {exc}"


def recount_file(path: str) -> dict:
    """checks.recount of an edge file, run in its own process.

    A child's ru_maxrss also counts the high-water memory of the process
    that spawned it (exec records it), so run.py must stay smaller than
    any child: the recount of a million edges would not.
    """
    proc = subprocess.run([sys.executable, os.path.join(HERE, "checks.py"), path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise checks.CheckError(proc.stderr.strip())
    return json.loads(proc.stdout)


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def iteration_metrics(wl: Workload, it: Iteration) -> dict:
    """Per-repetition end-to-end numbers (NaN where a step did not finish)."""
    def done(step):
        child = it.child(step)
        return child if child is not None and child.code == 0 else None

    def per(value, step, attr):
        child = done(step)
        return value / getattr(child, attr) if child else math.nan

    edges = it.counts.get("edges", math.nan)
    out = {
        "pipeline_cpu_s": it.pipeline_scaled_cpu_s,
        "sample_edges_per_cpu_s": per(edges, "sample", "scaled_cpu_s"),
        "count_edges_per_cpu_s": per(edges, wl.counting_step, "scaled_cpu_s"),
        "peak_rss_mb": max(c.rss_mb for c in it.children),
        "pipeline_raw_cpu_s": it.pipeline_cpu_s,
        "pipeline_s": it.pipeline_s,
        "sample_edges_per_s": per(edges, "sample", "wall_s"),
        "count_edges_per_s": per(edges, wl.counting_step, "wall_s"),
        "edges": edges,
    }
    for name, step in STEP_TIMES.items():
        if step in wl.steps:
            out[name] = done(step).wall_s if done(step) else math.nan
    if "fit" in wl.steps:
        out["fit_objective"] = it.fit_objective
    return out


def layer_metrics(wl: Workload, it: Iteration) -> dict:
    """Per-layer numbers from the spans of one traced repetition."""
    total = dict.fromkeys(PER_LAYER, 0.0)
    calls: dict[str, int] = {}
    restart_s, boxes, placed = [], 0, 0
    minimize_s = moments_in_minimize = 0.0
    nfev = successes = 0
    for spans in it.spans:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            key = f"{name}.s"
            if key in total:
                total[key] += dur
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name == "graph.from_pairs":
                owner = "sampler" if parent_name in SAMPLER_SPANS else "features"
                total[f"{owner}.csr_build.s"] += dur
            elif name in SAMPLER_SPANS:
                total["sampler.placement_self_s"] += dur - child_time[i]
                placed += attrs["edges"]
            elif name == "sampler.box_draw":
                boxes += attrs["size"]
            elif name == "cli.read_edge_list":
                total["cli.edge_lines"] += attrs["lines"]
            elif name == "fit.local_optimize":
                restart_s.append(dur)
            elif name == "fit.minimize":
                minimize_s += dur
                total["fit.optimizer_self_s"] += dur - child_time[i]
                nfev += attrs["nfev"]
                successes += attrs["success"]
            if name in MOMENT_SPANS and parent_name == "fit.minimize":
                moments_in_minimize += dur
    for name in MOMENT_SPANS:
        total[f"{name}.calls"] = calls.get(name, 0)
    total["sampler.boxes_drawn"] = boxes / wl.k if calls.get("sampler.box_draw") else 0
    total["sampler.edges_placed"] = placed
    total["sampler.edges_per_box"] = placed * wl.k / boxes if boxes else 0.0
    total["fit.restarts"] = len(restart_s)
    total["fit.restart_s"] = statistics.median(restart_s) if restart_s else 0.0
    total["fit.nfev"] = nfev
    total["fit.eval_us"] = 1e6 * minimize_s / nfev if nfev else 0.0
    total["fit.converged_ratio"] = successes / len(restart_s) if restart_s else 0.0
    total["measure.share_of_fit"] = moments_in_minimize / minimize_s if minimize_s else 0.0
    total["fit.objective"] = it.fit_objective if "fit" in wl.steps else 0.0
    total["features.c3"] = it.counts.get("C3", 0)
    total["features.c4"] = it.counts.get("C4", 0)
    total["features.max_degree"] = it.counts.get("max_degree", 0)
    total["cli.nodes_lost"] = wl.nodes - it.counts.get("nodes", 0)
    return total


def median_metrics(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_metadata(seed: int) -> dict:
    commit = "unknown"  # a checkout without .git, as the benchmark is often run
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    meta = run_metadata(seed)
    iterations = []
    report: dict = {}
    if trace:
        plain = run_iteration(wl, seed, os.path.join(workdir, "plain"), False)
        traced = run_iteration(wl, seed, os.path.join(workdir, "traced"), True)
        iterations = [plain, traced]
        for step in steps_of(wl):
            a, b = plain.child(step), traced.child(step)
            if a and b and a.stdout != b.stdout and step not in traced.failures:
                traced.failures[step] = "traced output differs from the untraced run"
        metrics = layer_metrics(wl, traced)
        metrics["trace.overhead_s"] = traced.pipeline_s - plain.pipeline_s
        units = PER_LAYER
    else:
        setup = measure_setup(wl, workdir)
        # Every repetition gets the same seed, so how many run (which depends
        # on the code's speed) changes only how many samples the medians take,
        # never which inputs they are taken over.
        measured = 0.0
        for i in itertools.count():
            it = run_iteration(wl, seed, os.path.join(workdir, f"it{i}"), False)
            iterations.append(it)
            measured += it.pipeline_s
            if measured + statistics.median(x.pipeline_s for x in iterations) > seconds:
                break
        rows = [iteration_metrics(wl, it) for it in iterations]
        metrics = {"setup_s": statistics.median(t["scaled_cpu_s"] for t in setup),
                   "setup_raw_cpu_s": statistics.median(t["cpu_s"] for t in setup),
                   "setup_wall_s": statistics.median(t["wall_s"] for t in setup),
                   **median_metrics(rows)}
        units = {**END_TO_END, **REPORTED, **dict.fromkeys(STEP_TIMES, "s"),
                 "fit_objective": "1"}
        report["setup_runs"] = setup
        report["repetitions"] = [dict(seed=it.seed, **row) for it, row in zip(iterations, rows)]
        report["cli.nodes_lost"] = [wl.nodes - it.counts.get("nodes", 0) for it in iterations]
        # The reference's speed per command: it should follow the host, not
        # which command was paused to run it.
        report["reference_ms"] = {
            step: statistics.median(1e3 * it.child(step).reference_s for it in iterations
                                    if it.child(step))
            for step in steps_of(wl) if iterations[0].child(step)}
        report["reference_ms"]["setup"] = statistics.median(t["reference_ms"] for t in setup)

    attempted = len(steps_of(wl)) * len(iterations)
    failures = [(it.seed, step, why) for it in iterations for step, why in it.failures.items()]
    metrics = {name: value for name, value in metrics.items() if name in units}
    report.update({
        "workload": wl.name,
        "trace": int(trace),
        "metadata": meta,
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "ops_failed_ratio": len(failures) / attempted,
        "failures": [f"seed {s} {step}: {why}" for s, step, why in failures],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })
    return report


def result_line(reports: list[dict], names: dict, prefix: bool) -> dict:
    metrics = {}
    for rep in reports:
        for name in names:
            entry = rep["metrics"].get(name)
            if entry is not None and math.isfinite(entry["value"]):
                metrics[f"{rep['workload']}.{name}" if prefix else name] = entry
    attempted = sum(rep["ops_attempted"] for rep in reports)
    failed = sum(rep["ops_failed"] for rep in reports)
    expected = len(names) * len(reports) if prefix else len(names)
    return {"correct": failed == 0 and len(metrics) == expected, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_table(rep: dict) -> None:
    print(f"== {rep['workload']} (trace {rep['trace']}): {rep['ops_failed']} of "
          f"{rep['ops_attempted']} commands failed, ops_failed_ratio "
          f"{rep['ops_failed_ratio']:.6g}")
    for why in rep["failures"]:
        print(f"   FAILED {why}")
    for name, entry in rep["metrics"].items():
        print(f"   {name:36s} {entry['value']:>18.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mfng", "cli.py")):
        sys.stderr.write(f"no mfng package under {SRC}; run from a full checkout\n")
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(WORK, str(os.getpid()))
    reports = []
    try:
        for name in names:
            rep = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               os.path.join(workdir, name))
            print_table(rep)
            print(json.dumps({"report": rep}))
            reports.append(rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(result_line(reports, names, prefix=len(reports) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
