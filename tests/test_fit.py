"""Moment-matching objective and the restart/depth-sweep fitter."""

import importlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import mfng
from mfng import CliqueSizeError, DomainError, ZeroTargetFeatureError
from mfng.fit import (
    FitConfig,
    _decode_params,
    _encode_params,
    _lane_objective,
    _measure_at,
    local_optimize,
    objective,
    random_init,
)
from mfng.measure import max_depth

# mfng.fit the attribute is the fit function; the module is needed here
fit_module = importlib.import_module("mfng.fit")


def exact_target(measure, n, features=("edges", "S2", "S3", "S4", "C3", "C4")):
    return mfng.expected_feature_vector(measure, n, features)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_at_the_generating_measure(block_measure_k4):
    n = 500
    target = exact_target(block_measure_k4, n)
    assert objective(block_measure_k4, n, target) == 0.0


def test_objective_positive_away_from_target(block_measure_k4):
    n = 500
    target = exact_target(block_measure_k4, n)
    other = mfng.make_measure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], k=4)
    assert objective(other, n, target) > 0.0


def test_objective_left_out_key_drops_its_term(block_measure_k4):
    n = 300
    target = exact_target(block_measure_k4, n)
    probe = mfng.make_measure([0.4, 0.6], [[0.6, 0.4], [0.4, 0.7]], k=4)
    without_c4 = mfng.FeatureVector.from_dict(
        {key: value for key, value in target.items() if key != "C4"})
    with_c4 = objective(probe, n, target)
    without = objective(probe, n, without_c4)
    c4_term = abs(target.value("C4") - mfng.expected_t_cliques(probe, n, 4)) \
        / target.value("C4")
    assert math.isclose(with_c4 - without, c4_term, rel_tol=1e-9)


def test_objective_rejects_zero_target_counts(block_measure_k4):
    target = mfng.FeatureVector.from_dict({"edges": 100.0, "C3": 0.0})
    with pytest.raises(ZeroTargetFeatureError):
        objective(block_measure_k4, 200, target)


# ---------------------------------------------------------------------------
# starting points and the local optimizer
# ---------------------------------------------------------------------------

def test_random_init_is_a_valid_measure():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3, 4):
        probs, lengths = random_init(m, rng)
        meas = mfng.make_measure(lengths, probs, k=2)  # validates everything
        assert meas.m == m


def test_local_optimize_stays_at_a_perfect_start(block_measure_k4):
    n = 400
    target = exact_target(block_measure_k4, n)
    meas, obj = local_optimize(
        block_measure_k4.probs, block_measure_k4.lengths, 4, n, target)
    assert obj == 0.0
    assert np.allclose(meas.probs, block_measure_k4.probs, atol=1e-9)


def test_local_optimize_improves_a_rough_start(block_measure_k4):
    n = 400
    target = exact_target(block_measure_k4, n)
    probs0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    lengths0 = np.array([0.5, 0.5])
    start_obj = objective(
        mfng.make_measure(lengths0, probs0, k=4), n, target)
    _, obj = local_optimize(probs0, lengths0, 4, n, target)
    assert obj < start_obj


UNDERFLOWING = np.array([0.0, 0.0, 0.0, -800.0])  # m=2: exp(-800) is 0.0


def test_decode_params_floors_underflowed_lengths():
    _, lengths = _decode_params(UNDERFLOWING, 2)
    assert lengths.tolist() == [1.0, np.finfo(float).tiny]
    # a point that does not underflow decodes bit for bit as it did unfloored
    x = _encode_params(np.array([[0.6, 0.3], [0.3, 0.2]]), np.array([0.35, 0.65]))
    raw = np.exp(np.array([0.0, x[3]]) - max(0.0, x[3]))
    assert np.array_equal(_decode_params(x, 2)[1], raw / raw.sum())


def test_decode_params_logistic_limit_is_silent():
    x = np.array([-1000.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs, _ = _decode_params(x, 2)
    assert probs[0, 0] == 0.0


def scipy_search(fun, x0):
    """scipy's Nelder-Mead at the fit's options: the reference search."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, method="Nelder-Mead", options={
        "fatol": fit_module._FATOL, "xatol": fit_module._XATOL,
        "maxiter": fit_module._MAX_ITERATIONS, "maxfev": 2 * fit_module._MAX_ITERATIONS})


def rugged(x):
    """A function whose contractions often fail, so the search shrinks."""
    return float(np.sin(1e4 * x).sum() + 0.1 * (x ** 2).sum())


# The zero coordinate takes the absolute initial step.  The caps end the
# search early: cap 1 runs out of evaluations inside the initial simplex,
# cap 3 in the middle of a step of the 4-d start, and cap 10 runs out of
# iterations.
@pytest.mark.parametrize("x0", [[-1.2, 1.0, 0.8], [0.0, 0.5, -0.3, 1.1],
                                [1.3, 0.7, 0.8, 1.9, 1.2]],
                         ids=["3d", "zero_coordinate", "5d"])
@pytest.mark.parametrize("max_iterations", [None, 1, 3, 10],
                         ids=["full_budget", "cap1", "cap3", "cap10"])
def test_minimize_matches_scipy_at_the_fit_options(monkeypatch, x0, max_iterations):
    from scipy.optimize import rosen

    if max_iterations is not None:
        monkeypatch.setattr(fit_module, "_MAX_ITERATIONS", max_iterations)
    ours = fit_module.minimize(rosen, np.array(x0))
    theirs = scipy_search(rosen, np.array(x0))
    assert np.array_equal(ours.x, theirs.x)
    assert ours.fun == theirs.fun
    assert ours.nfev == theirs.nfev
    assert ours.success == theirs.success
    assert ours.success == (max_iterations is None)


LANE_STARTS = [[0.0, 0.5, -0.3, 1.1], [-1.2, 1.0, 0.8, 0.3],
               [1.3, 0.7, 0.8, 1.9], [2.0, -1.0, 0.5, 0.0]]


# Lanes run out of their budgets at different steps.  On the rugged
# function, at caps 6 and 10 some lanes run out in the middle of a shrink,
# and at cap 6 one has no evaluation left when its shrink starts.
@pytest.mark.parametrize("function", ["rosen", "rugged"])
@pytest.mark.parametrize("max_iterations", [None, 1, 3, 6, 10],
                         ids=["full_budget", "cap1", "cap3", "cap6", "cap10"])
def test_lanes_each_match_a_scipy_search(monkeypatch, function, max_iterations):
    from scipy.optimize import rosen

    fun = rosen if function == "rosen" else rugged
    if max_iterations is not None:
        monkeypatch.setattr(fit_module, "_MAX_ITERATIONS", max_iterations)
    lanes = fit_module.minimize_lanes(
        lambda points, ids: np.array([fun(x) for x in points]), LANE_STARTS)
    for i, x0 in enumerate(LANE_STARTS):
        theirs = scipy_search(fun, np.array(x0))
        assert np.array_equal(lanes.x[i], theirs.x)
        assert lanes.fun[i] == theirs.fun
        assert lanes.nfev[i] == theirs.nfev
        assert lanes.success[i] == theirs.success


def test_local_optimize_matches_a_scipy_search(block_measure_k4):
    n = 400
    target = exact_target(block_measure_k4, n)
    lane_objective = _lane_objective(target, n, 2, [4])
    for seed in range(4):
        probs, lengths = random_init(2, np.random.default_rng(seed))
        meas, obj = local_optimize(probs, lengths, 4, n, target)
        theirs = scipy_search(lambda x: lane_objective(x[None], np.zeros(1, dtype=int))[0],
                              _encode_params(probs, lengths))
        scipy_meas = _measure_at(theirs.x, 2, 4)
        assert np.array_equal(meas.probs, scipy_meas.probs)
        assert np.array_equal(meas.lengths, scipy_meas.lengths)
        assert obj == objective(scipy_meas, n, target)


def test_local_optimize_survives_an_underflowed_length(monkeypatch, block_measure_k4):
    n = 400
    target = exact_target(block_measure_k4, n)
    monkeypatch.setattr(fit_module, "minimize_lanes",
                        lambda fun, x0: SimpleNamespace(x=UNDERFLOWING[None]))
    probs0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    lengths0 = np.array([0.5, 0.5])
    meas, obj = local_optimize(probs0, lengths0, 4, n, target)
    assert np.all(meas.lengths > 0.0)
    assert math.isfinite(obj)


# ---------------------------------------------------------------------------
# the batched objective
# ---------------------------------------------------------------------------

def random_points(m, count, rng):
    """Search points of random measures, some with a zero row of P (its
    logits decode to exactly 0), one with every probability zero."""
    points = np.array([_encode_params(*random_init(m, rng)) for _ in range(count)])
    n_tri = m * (m + 1) // 2
    row = np.flatnonzero(np.triu_indices(m)[0] == 0)  # row 0 of P
    points[: count // 4, row] = -1000.0
    points[count // 4, :n_tri] = -1000.0
    return points


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n, features", [
    (300, ("edges", "S2", "S3", "S4", "C3", "C4")),
    (40, ("edges", "S1", "S5", "C2", "C3", "C5", "C8")),
    # C(n, 4) alone is about 1e318: stars and cliques of near-complete
    # measures overflow a float, the rest do not
    (10 ** 80, ("edges", "S2", "S4", "C3", "C4")),
], ids=["default", "orders", "overflow"])
def test_batched_objective_matches_the_scalar_objective(m, n, features):
    rng = np.random.default_rng(m)
    target = mfng.FeatureVector({key: float(rng.integers(1, 10 ** 6)) for key in features})
    depths = np.array([1, 2, 5, 9, 14])
    points = random_points(m, 80, rng)
    lanes = rng.integers(0, depths.size, size=points.shape[0])
    batched = _lane_objective(target, n, m, depths)(points, lanes)
    scalar = np.array([objective(_measure_at(x, m, int(depths[lane])), n, target)
                       for x, lane in zip(points, lanes)])
    assert not np.any(np.isnan(batched))
    assert np.array_equal(np.isinf(batched), np.isinf(scalar))
    finite = np.isfinite(scalar)
    assert np.allclose(batched[finite], scalar[finite], rtol=1e-12, atol=0.0)
    if n > 10 ** 6:
        assert np.isinf(batched).any() and finite.any()


@pytest.mark.parametrize("features, error", [
    ({"edges": 10.0, "C9": 1.0}, CliqueSizeError),
    ({"edges": 10.0, "S20": 1.0}, DomainError),
    ({"edges": 10.0, "C3": 0.0}, ZeroTargetFeatureError),
])
def test_bad_target_raises_before_any_search(monkeypatch, features, error):
    def no_search(fun, x0):
        raise AssertionError("the search started")

    monkeypatch.setattr(fit_module, "minimize_lanes", no_search)
    target = mfng.FeatureVector(features)
    with pytest.raises(error):
        mfng.fit(target, 20, FitConfig(m=2, restarts=2))


# ---------------------------------------------------------------------------
# depth sweep and full fit
# ---------------------------------------------------------------------------

def test_depth_candidates_bracket_log_m_n():
    cfg = FitConfig(m=2)
    assert cfg.depth_candidates(2000) == (9, 10, 11, 12, 13)
    # the window is clipped at 1 on the left
    assert cfg.depth_candidates(2)[0] == 1


def test_depth_candidates_fixed_k():
    cfg = FitConfig(m=2, k=6)
    assert cfg.depth_candidates(2000) == (6,)


def test_depth_capped_by_encoding():
    assert max_depth(2) == 62
    assert max_depth(3) == 39
    with pytest.raises(DomainError):
        FitConfig(m=2, k=63).depth_candidates(100)


@pytest.mark.parametrize("settings", [{"restarts": 0}, {"seed": -3}])
def test_fit_rejects_bad_restarts_and_seed(block_measure_k4, settings):
    target = exact_target(block_measure_k4, 100)
    with pytest.raises(DomainError):
        mfng.fit(target, 100, FitConfig(m=2, k=4, **settings))


def test_fit_deterministic(block_measure_k4):
    n = 200
    target = exact_target(block_measure_k4, n)
    cfg = FitConfig(m=2, k=4, restarts=8, seed=3)
    r1 = mfng.fit(target, n, cfg)
    r2 = mfng.fit(target, n, cfg)
    assert r1.objective == r2.objective
    assert np.array_equal(r1.measure.probs, r2.measure.probs)
    assert np.array_equal(r1.measure.lengths, r2.measure.lengths)
    assert r1.k == r2.k and r1.restart == r2.restart


def test_fit_more_restarts_never_worse(block_measure_k4):
    n = 200
    target = exact_target(block_measure_k4, n)
    few = mfng.fit(target, n, FitConfig(m=2, k=4, restarts=5, seed=0))
    many = mfng.fit(target, n, FitConfig(m=2, k=4, restarts=15, seed=0))
    assert many.objective <= few.objective


def test_fit_recovers_exact_moments_single_category():
    # one category: only p is free, the sweep must land on the right depth
    truth = mfng.make_measure([1.0], [[0.55]], k=3)
    n = 300
    target = exact_target(truth, n, features=("edges", "S2", "C3"))
    result = mfng.fit(target, n, FitConfig(m=1, k=3, restarts=5, seed=1))
    assert result.objective < 1e-6
    assert abs(float(result.measure.probs[0, 0]) - 0.55) < 1e-3


def test_fit_small_two_category_recovery(block_measure_k4):
    n = 500
    target = exact_target(block_measure_k4, n)
    result = mfng.fit(target, n, FitConfig(m=2, k=4, restarts=30, seed=0))
    assert result.objective < 0.05
    for key, ratio in result.ratios.items():
        assert 0.8 < ratio < 1.2, (key, ratio)


def test_fit_reports_the_depth_sweep(block_measure_k4):
    n = 150
    target = exact_target(block_measure_k4, n, features=("edges", "S2", "C3"))
    cfg = FitConfig(m=2, restarts=3, seed=2)
    result = mfng.fit(target, n, cfg)
    assert set(result.best_by_depth) == set(cfg.depth_candidates(n))
    assert result.k in result.best_by_depth
    assert math.isclose(
        result.best_by_depth[result.k], result.objective, rel_tol=1e-12)
    assert result.objective == min(result.best_by_depth.values())


def test_fit_trace_holds_every_lane(block_measure_k4):
    n = 150
    target = exact_target(block_measure_k4, n, features=("edges", "S2", "C3"))
    cfg = FitConfig(m=2, restarts=4, seed=2)
    result = mfng.fit(target, n, cfg)
    depths = cfg.depth_candidates(n)
    assert [(row.k, row.restart) for row in result.trace] == \
        [(k, r) for k in depths for r in range(4)]
    for k in depths:
        assert min(row.objective for row in result.trace if row.k == k) \
            == result.best_by_depth[k]
    objectives = [row.objective for row in result.trace]
    winner = result.trace[objectives.index(min(objectives))]
    assert (winner.k, winner.restart) == (result.k, result.restart)
    assert all(row.nfev > 0 for row in result.trace)


def test_fit_lanes_do_not_depend_on_the_restart_count(monkeypatch, block_measure_k4):
    n = 150
    target = exact_target(block_measure_k4, n, features=("edges", "S2", "C3"))
    searches = []
    real = fit_module.minimize_lanes

    def recording(fun, x0):
        searches.append(real(fun, x0))
        return searches[-1]

    monkeypatch.setattr(fit_module, "minimize_lanes", recording)
    few = mfng.fit(target, n, FitConfig(m=2, restarts=3, seed=5))
    many = mfng.fit(target, n, FitConfig(m=2, restarts=10, seed=5))
    kept = [i for i, row in enumerate(many.trace) if row.restart < 3]
    assert few.trace == tuple(many.trace[i] for i in kept)
    assert np.array_equal(searches[0].x, searches[1].x[kept])
