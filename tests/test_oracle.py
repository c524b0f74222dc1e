"""Brute-force enumeration oracle and Monte Carlo reference stats.

These are deliberately slow, independent recomputations used to pin down the
closed-form module; keep the sizes tiny.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import mfng
from mfng import DomainError, GraphTooLargeError, PatternTooLargeError
from mfng.measure import NoiseSchedule
from mfng.oracle import (
    _pattern_probability,
    exact_expected_features,
    exact_subgraph_probability,
    mc_feature_stats,
)

EDGE = [(0, 1)]
WEDGE = [(0, 1), (0, 2)]
TRIANGLE = [(0, 1), (0, 2), (1, 2)]
FOUR_CLIQUE = [(a, b) for a in range(4) for b in range(a + 1, 4)]


def test_edge_pattern_probability_is_survival_power(block_measure_k4):
    s = mfng.edge_survival_factor(block_measure_k4)
    got = exact_subgraph_probability(block_measure_k4, EDGE)
    assert math.isclose(got, s**4, rel_tol=1e-14)


def test_empty_pattern_has_probability_one(block_measure_k4):
    assert exact_subgraph_probability(block_measure_k4, [], num_nodes=3) == 1.0


def test_single_category_pattern_probability():
    meas = mfng.make_measure([1.0], [[0.3]], k=2)
    # every pair survives independently with probability p^k
    assert math.isclose(
        exact_subgraph_probability(meas, TRIANGLE), (0.3**2) ** 3, rel_tol=1e-14)


def test_pattern_probability_depth_power_law(random_measure):
    rng = np.random.default_rng(17)
    for _ in range(20):
        meas = random_measure(rng, max_k=4)
        base = mfng.make_measure(meas.lengths, meas.probs, k=1)
        for pattern in (EDGE, WEDGE, TRIANGLE):
            down = exact_subgraph_probability(base, pattern)
            up = exact_subgraph_probability(meas, pattern)
            assert math.isclose(up, down**meas.k, rel_tol=1e-12)


def test_per_level_pattern_probability_of_equal_levels_is_the_power(random_measure):
    # In exact rationals, the product over k copies of the matrix is the
    # one-level survival to the k-th power.
    rng = np.random.default_rng(18)
    for _ in range(10):
        meas = random_measure(rng, max_k=4)
        schedule = NoiseSchedule((meas.probs,) * meas.k, np.zeros(meas.k), meas.lengths)
        for pattern, t in ((EDGE, 2), (WEDGE, 3), (TRIANGLE, 3)):
            assert (_pattern_probability(schedule, pattern, t, Fraction)
                    == _pattern_probability(meas, pattern, t, Fraction))


def test_per_level_pattern_probability_multiplies_the_levels():
    lengths = np.array([0.25, 0.75])
    low, high = np.array([[0.2, 0.1], [0.1, 0.4]]), np.array([[0.9, 0.6], [0.6, 0.8]])
    schedule = NoiseSchedule((low, high, high), np.zeros(3), lengths)
    for pattern in (EDGE, WEDGE, TRIANGLE):
        per_level = [exact_subgraph_probability(mfng.make_measure(lengths, p, k=1), pattern)
                     for p in (low, high, high)]
        assert math.isclose(exact_subgraph_probability(schedule, pattern),
                            math.prod(per_level), rel_tol=1e-14)


def test_pattern_probability_monotone_in_edges(three_cat_measure):
    p_edge = exact_subgraph_probability(three_cat_measure, EDGE, num_nodes=3)
    p_wedge = exact_subgraph_probability(three_cat_measure, WEDGE)
    p_tri = exact_subgraph_probability(three_cat_measure, TRIANGLE)
    assert p_edge >= p_wedge >= p_tri > 0


def test_pattern_validation(block_measure_k4):
    with pytest.raises(DomainError):
        exact_subgraph_probability(block_measure_k4, [(0, 0)])
    with pytest.raises(DomainError):
        exact_subgraph_probability(block_measure_k4, [(0, 1)], num_nodes=1)
    six_star = [(0, i) for i in range(1, 6)]
    with pytest.raises(PatternTooLargeError):
        exact_subgraph_probability(block_measure_k4, six_star)


def test_expected_features_by_hand_for_uniform_matrix():
    # constant matrix: the graph is G(n, p^k) and everything is a binomial count
    p, k, n = 0.5, 2, 8
    meas = mfng.make_measure([0.25, 0.75], [[p, p], [p, p]], k=k)
    q = p**k
    vec = exact_expected_features(meas, n)
    assert math.isclose(vec.value("edges"), math.comb(n, 2) * q, rel_tol=1e-12)
    assert math.isclose(
        vec.value("S2"), n * math.comb(n - 1, 2) * q**2, rel_tol=1e-12)
    assert math.isclose(
        vec.value("C3"), math.comb(n, 3) * q**3, rel_tol=1e-12)
    assert math.isclose(
        vec.value("C4"), math.comb(n, 4) * q**6, rel_tol=1e-12)


def test_expected_features_node_cap(block_measure_k4):
    with pytest.raises(GraphTooLargeError):
        exact_expected_features(block_measure_k4, 13)


def test_mc_stats_deterministic(block_measure_k4):
    a = mc_feature_stats(block_measure_k4, 20, ("edges", "S2"), samples=100, seed=5)
    b = mc_feature_stats(block_measure_k4, 20, ("edges", "S2"), samples=100, seed=5)
    assert a.means == b.means
    assert a.std_errors == b.std_errors
    c = mc_feature_stats(block_measure_k4, 20, ("edges", "S2"), samples=100, seed=6)
    assert c.means != a.means


def test_mc_stats_minimum_sample_size(block_measure_k4):
    with pytest.raises(DomainError):
        mc_feature_stats(block_measure_k4, 20, ("edges",), samples=99)


def test_mc_standard_error_shrinks_with_samples(block_measure_k4):
    small = mc_feature_stats(block_measure_k4, 30, ("edges",), samples=200, seed=1)
    large = mc_feature_stats(block_measure_k4, 30, ("edges",), samples=800, seed=1)
    ratio = small.std_errors["edges"] / large.std_errors["edges"]
    # quadrupling the sample should halve the SE, give or take estimator noise
    assert 1.5 < ratio < 2.7, ratio


def test_mc_means_agree_with_enumeration(three_cat_measure):
    n = 10
    stats = mc_feature_stats(
        three_cat_measure, n, ("edges", "S2", "C3"), samples=400, seed=11)
    exact = exact_expected_features(three_cat_measure, n, ("edges", "S2", "C3"))
    for key in ("edges", "S2", "C3"):
        gap = abs(stats.means[key] - exact.value(key))
        assert gap <= 4.0 * stats.std_errors[key] + 1e-12, key
