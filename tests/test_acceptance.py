"""End-to-end acceptance gates.

Each test checks one headline guarantee of the library at a fixed seed and
prints a single verdict line (run pytest with -s to see them alongside the
pass/fail status).  The statistical gates use 4-standard-error bands or wide
relative tolerances chosen so that a correct implementation fails with
negligible probability, while the deterministic gates use tight tolerances.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

import mfng
from mfng.cli import main as cli_main, write_measure
from mfng.oracle import (
    exact_degree_counts,
    exact_expected_features,
    exact_subgraph_probability,
)
from mfng.sampler import make_noise_schedule

BLOCK = dict(lengths=(0.25, 0.75), probs=((0.59, 0.43), (0.43, 0.78)))


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")


def random_measure(rng, max_m=3, max_k=3):
    m = int(rng.integers(1, max_m + 1))
    k = int(rng.integers(1, max_k + 1))
    lengths = rng.dirichlet(2.0 * np.ones(m))
    probs = rng.uniform(0.05, 0.95, size=(m, m))
    probs = (probs + probs.T) / 2.0
    return mfng.make_measure(lengths, probs, k=k)


def library_matches_oracle(meas, n, exact):
    got = mfng.expected_degree_counts(meas, n)
    return len(got) == n and all(
        math.isclose(g, float(e), rel_tol=1e-12, abs_tol=1e-12) for g, e in zip(got, exact))


def spawned(base, *key):
    return np.random.default_rng(np.random.SeedSequence(base, spawn_key=key))


# ---------------------------------------------------------------------------
# 1. closed-form moments against the enumeration oracle
# ---------------------------------------------------------------------------

def test_criterion_01_closed_forms_match_enumeration_oracle():
    rng = np.random.default_rng(100)
    keys = ("edges", "S2", "S3", "C3", "C4")
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        meas = random_measure(rng)
        n = int(rng.integers(5, 13))
        slow = exact_expected_features(meas, n, keys)
        fast = mfng.expected_feature_vector(meas, n, keys)
        for key in keys:
            a, b = fast.value(key), slow.value(key)
            rel = abs(a - b) / max(abs(b), 1e-300)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, "closed-form moments vs enumeration oracle", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. depth-k pattern probability is the depth-1 value to the k-th power
# ---------------------------------------------------------------------------

def test_criterion_02_depth_power_identity():
    patterns = {
        "edge": [(0, 1)],
        "wedge": [(0, 1), (0, 2)],
        "triangle": [(0, 1), (0, 2), (1, 2)],
    }
    rng = np.random.default_rng(200)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        meas = random_measure(rng, max_k=4)
        base = mfng.make_measure(meas.lengths, meas.probs, k=1)
        for pattern in patterns.values():
            up = exact_subgraph_probability(meas, pattern)
            down = exact_subgraph_probability(base, pattern) ** meas.k
            worst = max(worst, abs(up - down) / down)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(2, "depth-power identity for pattern probabilities", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. exact samplers reproduce the closed-form moments
# ---------------------------------------------------------------------------

def test_criterion_03_exact_sampler_calibration():
    measures = {
        "block_k4": mfng.make_measure(BLOCK["lengths"], BLOCK["probs"], k=4),
        "flat_k2": mfng.make_measure([1.0], [[0.6]], k=2),
        "three_cat_k3": mfng.make_measure(
            [0.2, 0.3, 0.5],
            [[0.9, 0.5, 0.2], [0.5, 0.7, 0.4], [0.2, 0.4, 0.6]], k=3),
    }
    n, runs = 100, 500
    samplers = {
        "naive": lambda meas, rng: mfng.naive_sample(n, meas, rng),
    }
    worst_z, worst_var = 0.0, 0.0
    t0 = time.perf_counter()
    for mname, meas in measures.items():
        expect = [
            mfng.expected_edges(meas, n),
            mfng.expected_d_stars(meas, n, 2),
            mfng.expected_t_cliques(meas, n, 3),
        ]
        var_want = mfng.edge_moments(meas, n).variance
        for sname, sampler in samplers.items():
            feats = np.empty((runs, 3))
            for i in range(runs):
                g = sampler(meas, spawned(2024, i))
                feats[i] = [g.edge_count, mfng.count_stars(g, 2),
                            mfng.count_triangles(g)]
            se = feats.std(axis=0, ddof=1) / math.sqrt(runs)
            z = np.abs(feats.mean(axis=0) - expect) / se
            var_err = abs(feats[:, 0].var(ddof=1) / var_want - 1.0)
            worst_z = max(worst_z, float(z.max()))
            worst_var = max(worst_var, var_err)
            assert z.max() <= 4.0, (mname, sname, z)
            assert var_err <= 0.20, (mname, sname, var_err)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and worst_var <= 0.20 and elapsed < 120.0
    report(3, "exact samplers calibrated on mean and variance", ok,
           f"max |z| {worst_z:.2f}, max var err {worst_var:.1%}, {elapsed:.0f}s")
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. constant-matrix variance identity
# ---------------------------------------------------------------------------

def test_criterion_04_uniform_variance_identity():
    rng = np.random.default_rng(400)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        k = int(rng.integers(1, 9))
        n = int(rng.integers(2, 1001))
        meas = mfng.make_measure([0.35, 0.65], [[p, p], [p, p]], k=k)
        q = p ** k
        want = math.comb(n, 2) * q * (1.0 - q)
        got = mfng.edge_moments(meas, n).variance
        if want > 0:
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(4, "binomial variance identity for constant matrices", ok,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 5. expected degree counts: exactness and two independent cross-checks
# ---------------------------------------------------------------------------

def test_criterion_05_degree_recursion_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(500)

    # (a) the rational oracle sums to n exactly, no tolerance; the library's
    # binomial mixture matches it entrywise
    for _ in range(10):
        meas = random_measure(rng)
        n = int(rng.integers(2, 31))
        counts = exact_degree_counts(meas, n)
        assert sum(counts) == n
        assert library_matches_oracle(meas, n, counts)

    # (b) constant matrix: counts are n * Binomial(n-1, p^k) pmf
    p, k, n = 0.57, 4, 30
    meas = mfng.make_measure([0.45, 0.55], [[p, p], [p, p]], k=k)
    q = Fraction(p) ** k
    counts = exact_degree_counts(meas, n)
    assert library_matches_oracle(meas, n, counts)
    worst = 0.0
    for d in range(n):
        want = n * math.comb(n - 1, d) * q**d * (1 - q) ** (n - 1 - d)
        if want:
            worst = max(worst, abs(float((counts[d] - want) / want)))
    assert worst <= 1e-10

    # (c) n=3 identity-matrix case, checked against direct enumeration:
    # P(opposite cats)=1/2 per neighbour, so the degree of a node is
    # Binomial(2, 1/2) -> expected counts (3/4, 3/2, 3/4)
    tiny = mfng.make_measure([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], k=1)
    got = exact_degree_counts(tiny, 3)
    assert got == [Fraction(3, 4), Fraction(3, 2), Fraction(3, 4)]
    assert library_matches_oracle(tiny, 3, got)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(5, "degree counts match the exact rational recursion", ok,
           f"binomial rel err {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 6. method of moments recovers a synthetic graph's generating measure
# ---------------------------------------------------------------------------

def test_criterion_06_synthetic_recovery():
    t0 = time.perf_counter()
    truth = mfng.make_measure(BLOCK["lengths"], BLOCK["probs"], k=10)
    n = 2000
    graph = mfng.naive_sample(n, truth, np.random.default_rng(12345))
    target = mfng.feature_vector(graph)
    result = mfng.fit(target, n, mfng.FitConfig(m=2, restarts=200, seed=0))
    good = sum(1 for r in result.ratios.values() if 0.9 <= r <= 1.1)
    elapsed = time.perf_counter() - t0
    ok = good >= 5 and elapsed < 60.0
    ratios = {k: round(v, 3) for k, v in result.ratios.items()}
    report(6, "synthetic measure recovery by moment matching", ok,
           f"{good}/6 ratios in [0.9, 1.1], k={result.k}, "
           f"objective {result.objective:.4f}, {elapsed:.0f}s; {ratios}")
    assert good >= 5, ratios
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. reference counts for the SNAP Gnutella-31 snapshot (needs the data file)
# ---------------------------------------------------------------------------

GNUTELLA_PATHS = (
    os.environ.get("MFNG_GNUTELLA", ""),
    os.path.join(os.path.dirname(__file__), "data", "p2p-Gnutella31.txt"),
)
GNUTELLA_EXPECTED = {
    "nodes": 62586,
    "edges": 147892,
    "S2": (1.57e6, 3),
    "S3": (8.17e6, 3),
    "S4": (4.38e7, 3),
    "C3": (2.02e3, 3),
    "C4": (1.6e1, 2),
}


def _round_sig(x, digits):
    if x == 0:
        return 0.0
    return round(x, digits - 1 - math.floor(math.log10(abs(x))))


def test_criterion_07_gnutella_reference_counts():
    path = next((p for p in GNUTELLA_PATHS if p and os.path.exists(p)), None)
    if path is None:
        report(7, "Gnutella-31 reference counts", True, "SKIP: data file not present")
        pytest.skip("p2p-Gnutella31.txt not available in this environment")
    t0 = time.perf_counter()
    from mfng.cli import read_edge_list

    graph = mfng.from_edge_list(read_edge_list(path))
    vec = mfng.feature_vector(graph)
    ok = graph.n == GNUTELLA_EXPECTED["nodes"]
    ok &= graph.edge_count == GNUTELLA_EXPECTED["edges"]
    for key in ("S2", "S3", "S4", "C3", "C4"):
        want, digits = GNUTELLA_EXPECTED[key]
        ok &= _round_sig(vec.value(key), digits) == want
    elapsed = time.perf_counter() - t0
    report(7, "Gnutella-31 reference counts", ok,
           f"|V|={graph.n} |E|={graph.edge_count}, {elapsed:.0f}s")
    assert ok
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. fast sampler reproduces the exact sampler's feature statistics
# ---------------------------------------------------------------------------

def test_criterion_08_fast_sampler_fidelity():
    meas = mfng.make_measure(BLOCK["lengths"], BLOCK["probs"], k=10)
    n, runs = 2000, 50
    t0 = time.perf_counter()

    def mean_feats(sampler, base):
        acc = np.zeros(3)
        for i in range(runs):
            g = sampler(spawned(base, i))
            acc += [g.edge_count, mfng.count_stars(g, 2), mfng.count_triangles(g)]
        return acc / runs

    fast = mean_feats(lambda rng: mfng.fast_sample(n, meas, rng=rng), 31)
    naive = mean_feats(lambda rng: mfng.naive_sample(n, meas, rng), 32)
    want_edges = mfng.expected_edges(meas, n)
    edge_err = abs(fast[0] - want_edges) / want_edges
    s2_err = abs(fast[1] - naive[1]) / naive[1]
    c3_err = abs(fast[2] - naive[2]) / naive[2]
    elapsed = time.perf_counter() - t0
    ok = edge_err < 0.05 and s2_err < 0.20 and c3_err < 0.20 and elapsed < 300.0
    report(8, "fast sampler fidelity vs exact sampler", ok,
           f"edges {edge_err:.1%}, S2 {s2_err:.1%}, C3 {c3_err:.1%}, {elapsed:.0f}s")
    assert edge_err < 0.05
    assert s2_err < 0.20
    assert c3_err < 0.20
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 9. fast sampler scales near-linearly in the edge count
# ---------------------------------------------------------------------------

def test_criterion_09_fast_sampler_scaling():
    def measure_for(n, k=11, degree=20.0):
        p = (degree / n) ** (1.0 / k)
        return mfng.make_measure([0.5, 0.5], [[p, p], [p, p]], k=k)

    # warm up allocators and caches before timing
    mfng.fast_sample(10000, measure_for(10000), rng=np.random.default_rng(1))

    # CPU time of this process: the ratio measures the sampler's own work,
    # not time spent waiting for a core on a shared machine.
    # The best of five draws (seeds 99 to 103) at each size, the sizes taken
    # in turn: on a shared machine a spell of load can slow a 0.13 s draw by
    # 0.04 s, and taken in turn it slows every size alike.
    sizes = (25_000, 50_000, 100_000)
    measures = [measure_for(n) for n in sizes]
    times = [math.inf] * len(sizes)
    for rep in range(5):
        for i, (n, meas) in enumerate(zip(sizes, measures)):
            rng = np.random.default_rng(99 + rep)
            t0 = time.process_time()
            g = mfng.fast_sample(n, meas, rng=rng)
            times[i] = min(times[i], time.process_time() - t0)
            assert g.n == n
    r1 = times[1] / times[0]
    r2 = times[2] / times[1]
    ok = r1 <= 2.5 and r2 <= 2.5 and times[2] < 60.0
    report(9, "fast sampler near-linear scaling", ok,
           f"25k {times[0]:.2f}s, 50k {times[1]:.2f}s, 100k {times[2]:.2f}s; "
           f"ratios {r1:.2f}, {r2:.2f}")
    assert r1 <= 2.5 and r2 <= 2.5
    assert times[2] < 60.0


# ---------------------------------------------------------------------------
# 10. per-level noise: exact zero-noise reproduction and smoother CCDF
# ---------------------------------------------------------------------------

def _pooled_ccdf_wiggle(graphs, min_tail=20, points=25):
    """Mean absolute detrended log-CCDF deviation, pooled over samples.

    The CCDF is averaged across the sample graphs, evaluated on a log-spaced
    degree grid restricted to degrees backed by at least ``min_tail`` nodes,
    and compared against its own 5-point moving average; the staircase of a
    strongly multifractal degree distribution shows up as a large deviation.
    """
    n = graphs[0].n
    size = max(mfng.degree_distribution(g).ccdf().size for g in graphs)
    acc = np.zeros(size)
    for g in graphs:
        c = mfng.degree_distribution(g).ccdf()
        acc[: c.size] += c
    ccdf = acc / len(graphs)
    ok = np.nonzero(ccdf * n >= min_tail)[0]
    ok = ok[ok >= 1]
    if ok.size < 5:
        return 0.0
    grid = np.unique(np.round(np.logspace(0.0, np.log10(ok[-1]), points)).astype(int))
    grid = grid[(grid <= ok[-1]) & (ccdf[grid] > 0)]
    y = np.log10(ccdf[grid])
    if y.size < 5:
        return 0.0
    smooth = np.convolve(y, np.ones(5) / 5.0, mode="valid")
    return float(np.mean(np.abs(y[2:-2] - smooth)))


def test_criterion_10_noise_smooths_degree_oscillations():
    t0 = time.perf_counter()
    meas = mfng.make_measure(BLOCK["lengths"], BLOCK["probs"], k=10)

    # zero amplitude must reproduce both plain samplers bit for bit
    same_fast = mfng.noisy_sample(
        1500, meas, 0.0, rng=np.random.default_rng(7)) == mfng.fast_sample(
        1500, meas, rng=np.random.default_rng(7))
    small = mfng.make_measure(BLOCK["lengths"], BLOCK["probs"], k=4)
    schedule = make_noise_schedule(small, 0.0, np.random.default_rng(7))
    same_exact = (mfng.naive_sample(100, schedule, np.random.default_rng(7))
                  == mfng.naive_sample(100, small, np.random.default_rng(7)))

    # a strongly two-block measure whose degree CCDF shows a clear staircase
    wavy = mfng.make_measure([0.2, 0.8], [[1.0, 0.55], [0.55, 0.15]], k=8)
    n, samples = 30_000, 10
    amps = {}
    for b in (0.0, 0.05, 0.1):
        graphs = [
            mfng.noisy_sample(n, wavy, b, rng=spawned(1000, int(b * 100), i))
            for i in range(samples)
        ]
        amps[b] = _pooled_ccdf_wiggle(graphs)
    monotone = amps[0.0] >= amps[0.05] >= amps[0.1]
    elapsed = time.perf_counter() - t0
    ok = same_fast and same_exact and monotone and elapsed < 600.0
    report(10, "noise reproduces b=0 exactly and damps CCDF oscillations", ok,
           f"identity fast/exact {same_fast}/{same_exact}, amplitudes "
           + ", ".join(f"b={b:g}: {a:.4f}" for b, a in amps.items())
           + f", {elapsed:.0f}s")
    assert same_fast and same_exact
    assert monotone, amps
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 11. CLI byte-level determinism
# ---------------------------------------------------------------------------

def test_criterion_11_cli_determinism(tmp_path, capsys):
    measure_path = tmp_path / "measure.json"
    write_measure(mfng.make_measure(BLOCK["lengths"], BLOCK["probs"], k=4),
                  str(measure_path))
    graph_path = tmp_path / "graph.tsv"
    dd_path = tmp_path / "dd.csv"
    fit_path = tmp_path / "fit.json"
    sampled = tmp_path / "sampled.tsv"

    # seed a small graph for the read-only commands
    assert cli_main(["sample", "--measure", str(measure_path), "--nodes", "150",
                     "--method", "naive", "--seed", "42",
                     "--out", str(graph_path)]) == 0
    capsys.readouterr()

    commands = [
        ["moments", "--measure", str(measure_path), "--nodes", "500"],
        ["moments", "--measure", str(measure_path), "--nodes", "500",
         "--format", "csv"],
        ["features", "--graph", str(graph_path)],
        ["degree-dist", "--graph", str(graph_path), "--out", str(dd_path)],
        ["sample", "--measure", str(measure_path), "--nodes", "400",
         "--seed", "9", "--out", str(sampled)],
        ["sample", "--measure", str(measure_path), "--nodes", "400",
         "--method", "noisy", "--noise", "0.05", "--seed", "9",
         "--out", str(sampled)],
        ["fit", "--graph", str(graph_path), "--m", "2", "--k", "4",
         "--restarts", "3", "--seed", "0", "--out", str(fit_path)],
        ["compare", "--graph", str(graph_path), "--measure", str(measure_path)],
    ]
    out_files = {
        "degree-dist": dd_path,
        "sample": sampled,
        "fit": fit_path,
    }

    t0 = time.perf_counter()
    all_same = True
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            side = out_files.get(argv[0])
            runs.append((code, captured.out,
                         side.read_bytes() if side else b""))
        same = runs[0] == runs[1] and runs[0][0] == 0
        all_same &= same
        assert same, argv
    elapsed = time.perf_counter() - t0
    report(11, "CLI output byte-identical across repeat runs", all_same,
           f"{len(commands)} commands, {elapsed:.0f}s")
    assert all_same


# The stdout of three commands on criterion 11's inputs, byte for byte.  A
# change to the closed forms, the fit, the exact sampler's draws or the
# output format changes these on purpose, and says so.
_PINNED_STDOUT = {
    "moments": (
        "feature   expected\n"
        "edges     20523.780425803372\n"
        "S2        1840818.3092376478\n"
        "S3        58883752.187355645\n"
        "S4        1484583982.4481423\n"
        "C3        126551.64600980023\n"
        "C4        179732.91629190629\n"
        "edge_std  579.42424249194084\n"),
    "compare": (
        "feature  actual   expected            ratio\n"
        "edges    1835     1838.5029760188577  1.0019089787568707\n"
        "S2       49956    49006.115067856917  0.98098556865755704\n"
        "S3       485729   463655.88070672151  0.95455671929557739\n"
        "S4       3697148  3440933.2347406568  0.93069934845471614\n"
        "C3       3732     3369.0476106527803  0.90274587638070214\n"
        "C4       1971     1415.2329038095108  0.71802785581405926\n"),
    "fit": (
        "fit: m=2 k=4 objective=0.057487391544364698 restart=2 of 3\n"
        "feature  actual   expected            ratio\n"
        "edges    1835     1846.9830979316198  1.0065302986003377\n"
        "S2       49956    49749.713583842931  0.99587063783815621\n"
        "S3       485729   481002.90599801455  0.99027010122519876\n"
        "S4       3697148  3697148.0010927818  1.0000000002955742\n"
        "C3       3732     3593.5508921805745  0.9629021683227692\n"
        "C4       1971     1971.0000000681575  1.0000000000345801\n"
        "wrote measure to {fit}\n"),
}


@pytest.mark.parametrize("command", sorted(_PINNED_STDOUT))
def test_criterion_11_cli_stdout_is_pinned(tmp_path, capsys, command):
    paths = {name: str(tmp_path / name) for name in ("measure.json", "graph.tsv", "fit.json")}
    write_measure(mfng.make_measure(BLOCK["lengths"], BLOCK["probs"], k=4),
                  paths["measure.json"])
    assert cli_main(["sample", "--measure", paths["measure.json"], "--nodes", "150",
                     "--method", "naive", "--seed", "42", "--out", paths["graph.tsv"]]) == 0
    capsys.readouterr()
    argv = {
        "moments": ["moments", "--measure", paths["measure.json"], "--nodes", "500"],
        "compare": ["compare", "--graph", paths["graph.tsv"], "--measure", paths["measure.json"]],
        "fit": ["fit", "--graph", paths["graph.tsv"], "--m", "2", "--k", "4",
                "--restarts", "3", "--seed", "0", "--out", paths["fit.json"]],
    }[command]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == _PINNED_STDOUT[command].format(fit=paths["fit.json"])
