"""Moment-matching objective and the restart/depth-sweep fitter."""

import importlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import mfng
from mfng import DomainError, ZeroTargetFeatureError
from mfng.fit import (
    FitConfig,
    _decode_params,
    _encode_params,
    local_optimize,
    max_depth,
    objective,
    random_init,
)

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


def test_minimize_wrapper_matches_scipy():
    from scipy.optimize import minimize as scipy_minimize, rosen

    x0 = np.array([-1.2, 1.0, 0.8])
    ours = fit_module.minimize(rosen, x0, method="Nelder-Mead")
    theirs = scipy_minimize(rosen, x0, method="Nelder-Mead")
    assert np.array_equal(ours.x, theirs.x)
    assert ours.fun == theirs.fun
    assert ours.nfev == theirs.nfev
    assert ours.success == theirs.success


def test_local_optimize_survives_an_underflowed_length(monkeypatch, block_measure_k4):
    n = 400
    target = exact_target(block_measure_k4, n)
    monkeypatch.setattr(fit_module, "minimize",
                        lambda *args, **kwargs: SimpleNamespace(x=UNDERFLOWING))
    probs0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    lengths0 = np.array([0.5, 0.5])
    meas, obj = local_optimize(probs0, lengths0, 4, n, target)
    assert np.all(meas.lengths > 0.0)
    assert math.isfinite(obj)


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
