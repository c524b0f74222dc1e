"""Closed-form moment formulas and measure validation."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import mfng
from mfng import (
    CliqueSizeError,
    DepthOverflowError,
    DomainError,
    GraphTooLargeError,
    LengthVectorError,
    NonSymmetricError,
    ProbabilityRangeError,
)
from mfng.measure import NoiseSchedule, max_depth
from mfng.oracle import (
    clique_survival_by_enumeration,
    exact_degree_counts,
    exact_edge_variance,
    exact_expected_features,
    star_survival_by_enumeration,
)
from mfng.sampler import make_noise_schedule


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_lengths_renormalized_within_tolerance():
    meas = mfng.make_measure([0.3, 0.7 + 2e-10], [[0.5, 0.5], [0.5, 0.5]], k=2)
    assert math.isclose(float(meas.lengths.sum()), 1.0, rel_tol=0, abs_tol=1e-15)


def test_lengths_off_by_too_much_rejected():
    with pytest.raises(LengthVectorError):
        mfng.make_measure([0.3, 0.8], [[0.5, 0.5], [0.5, 0.5]], k=2)


def test_lengths_must_be_positive():
    with pytest.raises(LengthVectorError):
        mfng.make_measure([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], k=2)
    with pytest.raises(LengthVectorError):
        mfng.make_measure([-0.1, 1.1], [[0.5, 0.5], [0.5, 0.5]], k=2)


def test_lengths_must_be_flat_vector():
    with pytest.raises(LengthVectorError):
        mfng.make_measure([[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], k=2)


@pytest.mark.parametrize("lengths", [[[0.5], [0.5, 0.2]], ["a", "b"]])
def test_ragged_or_non_numeric_lengths_are_typed_errors(lengths):
    with pytest.raises(LengthVectorError):
        mfng.make_measure(lengths, [[0.5, 0.5], [0.5, 0.5]], k=2)


@pytest.mark.parametrize("probs", [[[0.5, 0.5], [0.5]], [[0.5, "x"], [0.5, 0.5]]])
def test_ragged_or_non_numeric_probs_are_typed_errors(probs):
    with pytest.raises(ProbabilityRangeError):
        mfng.make_measure([0.5, 0.5], probs, k=2)


@pytest.mark.parametrize("lengths, probs, error", [
    ([1], [[10**400]], ProbabilityRangeError),
    ([0.5, 0.5], [[0.5, -10**400], [-10**400, 0.5]], ProbabilityRangeError),
    ([10**400], [[0.5]], LengthVectorError),
])
def test_numbers_beyond_the_float_range_are_typed_errors(lengths, probs, error):
    # An int too large for a float once escaped as a bare OverflowError.
    with pytest.raises(error, match="rectangular array of numbers"):
        mfng.make_measure(lengths, probs, k=2)


def test_probs_must_be_exactly_symmetric():
    with pytest.raises(NonSymmetricError):
        mfng.make_measure([0.5, 0.5], [[0.5, 0.5 + 1e-12], [0.5, 0.5]], k=2)


def test_probs_must_lie_in_unit_interval():
    with pytest.raises(ProbabilityRangeError):
        mfng.make_measure([0.5, 0.5], [[0.5, 1.2], [1.2, 0.5]], k=2)
    with pytest.raises(ProbabilityRangeError):
        mfng.make_measure([0.5, 0.5], [[-0.1, 0.5], [0.5, 0.5]], k=2)


def test_probs_shape_must_match_lengths():
    with pytest.raises(mfng.MeasureValidationError):
        mfng.make_measure([0.5, 0.5], [[0.5]], k=2)


def test_depth_must_fit_encoding():
    # category tuples are packed base-m into 62 bits
    with pytest.raises(DepthOverflowError):
        mfng.make_measure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], k=63)
    meas = mfng.make_measure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], k=62)
    assert meas.k == 62
    # one cap for every m: the fit's depth window uses the same max_depth
    with pytest.raises(DepthOverflowError):
        mfng.make_measure([1.0], [[0.5]], k=max_depth(1) + 1)


def test_depth_must_be_positive():
    with pytest.raises(DomainError):
        mfng.make_measure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], k=0)


@pytest.mark.parametrize("k", [2.7, "x", None, True])
def test_depth_must_be_an_integer(k):
    with pytest.raises(DomainError):
        mfng.make_measure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], k=k)


@pytest.mark.parametrize("lengths, probs, error", [
    ([[0.5], [0.5, 0.2]], [[0.5, 0.5], [0.5, 0.5]], LengthVectorError),
    ([0.5, 0.5], [[0.5, 0.5], [0.5]], ProbabilityRangeError),
])
def test_direct_construction_types_ragged_arrays(lengths, probs, error):
    with pytest.raises(error):
        mfng.GeneratingMeasure(m=2, k=2, lengths=lengths, probs=probs)


HALF = [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize("lengths, probs, k, error", [
    ([0.3, 0.8], HALF, 2, LengthVectorError),
    ([0.0, 1.0], HALF, 2, LengthVectorError),
    ([-0.1, 1.1], HALF, 2, LengthVectorError),
    ([np.inf, 1.0], HALF, 2, LengthVectorError),
    ([[0.5, 0.5]], HALF, 2, LengthVectorError),
    (["a", "b"], HALF, 2, LengthVectorError),
    ([0.5, 0.5], [[0.5, "x"], [0.5, 0.5]], 2, ProbabilityRangeError),
    ([0.5, 0.5], [[0.5]], 2, ProbabilityRangeError),
    ([0.5, 0.5], [[0.5, np.nan], [np.nan, 0.5]], 2, ProbabilityRangeError),
    ([0.5, 0.5], [[0.5, 1.2], [1.2, 0.5]], 2, ProbabilityRangeError),
    ([0.5, 0.5], [[-0.1, 0.5], [0.5, 0.5]], 2, ProbabilityRangeError),
    ([0.5, 0.5], [[0.5, 0.5 + 1e-12], [0.5, 0.5]], 2, NonSymmetricError),
    ([0.5, 0.5], HALF, 0, DomainError),
    ([0.5, 0.5], HALF, 2.7, DomainError),
    ([0.5, 0.5], HALF, None, DomainError),
    ([0.5, 0.5], HALF, 63, DepthOverflowError),
    ([1.0], [[0.5]], max_depth(1) + 1, DepthOverflowError),
    ([0.5, 0.5], HALF, True, DomainError),
])
def test_direct_construction_rejects_what_make_measure_rejects(lengths, probs, k, error):
    with pytest.raises(error):
        mfng.make_measure(lengths, probs, k)
    with pytest.raises(error):
        mfng.GeneratingMeasure(m=len(lengths), k=k, lengths=lengths, probs=probs)


def test_direct_construction_checks_m_against_the_lengths():
    with pytest.raises(LengthVectorError):
        mfng.GeneratingMeasure(m=3, k=2, lengths=[0.5, 0.5], probs=HALF)
    meas = mfng.GeneratingMeasure(m=np.int64(2), k=np.int64(3), lengths=[0.5, 0.5], probs=HALF)
    assert type(meas.m) is int and type(meas.k) is int


def test_direct_construction_leaves_the_callers_arrays_writable():
    lengths, probs = np.array([0.5, 0.5]), np.full((2, 2), 0.5)
    meas = mfng.GeneratingMeasure(m=2, k=2, lengths=lengths, probs=probs)
    lengths[0], probs[0, 0] = 0.4, 0.9
    assert meas.lengths[0] == 0.5 and meas.probs[0, 0] == 0.5


def test_single_category_measure_is_valid():
    meas = mfng.make_measure([1.0], [[0.7]], k=5)
    assert meas.m == 1
    assert mfng.edge_survival_factor(meas) == 0.7


def test_measure_arrays_are_read_only():
    meas = mfng.make_measure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], k=2)
    with pytest.raises(ValueError):
        meas.probs[0, 0] = 0.9
    with pytest.raises(ValueError):
        meas.lengths[0] = 0.9


# ---------------------------------------------------------------------------
# edge survival factor and expected edges
# ---------------------------------------------------------------------------

def test_survival_factor_of_block_measure(block_measure):
    # 0.0625*0.59 + 2*0.1875*0.43 + 0.5625*0.78, worked out by hand
    assert math.isclose(
        mfng.edge_survival_factor(block_measure), 0.636875, rel_tol=1e-12)


def test_expected_edges_uniform_collapses_to_gnp(uniform_measure):
    n = 5000
    want = math.comb(n, 2) * 0.73 ** 12
    got = mfng.expected_edges(uniform_measure, n)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_expected_edges_grows_with_n(block_measure_k4):
    values = [mfng.expected_edges(block_measure_k4, n) for n in (2, 10, 100, 1000)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_expected_edges_depth_power_law(random_measure):
    rng = np.random.default_rng(1234)
    for _ in range(30):
        meas = random_measure(rng, max_k=4)
        base = mfng.make_measure(meas.lengths, meas.probs, k=1)
        n = int(rng.integers(2, 200))
        per_pair_k = mfng.expected_edges(meas, n) / math.comb(n, 2)
        per_pair_1 = mfng.expected_edges(base, n) / math.comb(n, 2)
        assert math.isclose(per_pair_k, per_pair_1 ** meas.k, rel_tol=1e-12)


def test_expected_edges_rejects_bad_n(block_measure):
    with pytest.raises(DomainError):
        mfng.expected_edges(block_measure, 1)


# ---------------------------------------------------------------------------
# stars
# ---------------------------------------------------------------------------

def test_expected_stars_match_tuple_enumeration(random_measure):
    rng = np.random.default_rng(99)
    for _ in range(25):
        meas = random_measure(rng)
        n = int(rng.integers(4, 50))
        for d in (1, 2, 3):
            want = n * math.comb(n - 1, d) * star_survival_by_enumeration(meas, d) ** meas.k
            got = mfng.expected_d_stars(meas, n, d)
            assert math.isclose(got, want, rel_tol=1e-12), (meas.m, meas.k, n, d)


def test_one_star_is_twice_the_edges(block_measure):
    n = 500
    assert math.isclose(
        mfng.expected_d_stars(block_measure, n, 1),
        2.0 * mfng.expected_edges(block_measure, n),
        rel_tol=1e-12,
    )


def test_stars_reject_bad_orders(block_measure):
    with pytest.raises(DomainError):
        mfng.expected_d_stars(block_measure, 10, 0)
    with pytest.raises(DomainError):
        mfng.expected_d_stars(block_measure, 10, 10)  # needs d <= n-1


# ---------------------------------------------------------------------------
# cliques
# ---------------------------------------------------------------------------

def test_expected_cliques_match_tuple_enumeration(random_measure):
    rng = np.random.default_rng(77)
    for _ in range(25):
        meas = random_measure(rng)
        n = int(rng.integers(6, 40))
        for t in (2, 3, 4, 5):
            want = math.comb(n, t) * clique_survival_by_enumeration(meas, t) ** meas.k
            got = mfng.expected_t_cliques(meas, n, t)
            assert math.isclose(got, want, rel_tol=1e-12), (meas.m, meas.k, n, t)


def test_two_clique_is_an_edge(block_measure):
    n = 123
    assert math.isclose(
        mfng.expected_t_cliques(block_measure, n, 2),
        mfng.expected_edges(block_measure, n),
        rel_tol=1e-12,
    )


def test_triangles_bounded_by_wedges(random_measure):
    # every triangle contains three wedges
    rng = np.random.default_rng(2718)
    for _ in range(20):
        meas = random_measure(rng)
        n = int(rng.integers(3, 100))
        assert 3.0 * mfng.expected_t_cliques(meas, n, 3) <= \
            mfng.expected_d_stars(meas, n, 2) * (1 + 1e-12)


def test_clique_order_cap():
    meas = mfng.make_measure([0.5, 0.5], [[0.9, 0.9], [0.9, 0.9]], k=2)
    with pytest.raises(CliqueSizeError):
        mfng.expected_t_cliques(meas, 100, 9)
    with pytest.raises(DomainError):
        mfng.expected_t_cliques(meas, 4, 5)  # t > n


# ---------------------------------------------------------------------------
# edge variance
# ---------------------------------------------------------------------------

def test_edge_variance_uniform_is_binomial():
    # constant matrix: edge indicators are i.i.d., variance must be N q (1-q)
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(1, 8))
        n = int(rng.integers(3, 800))
        meas = mfng.make_measure([0.4, 0.6], [[p, p], [p, p]], k=k)
        q = p ** k
        want = math.comb(n, 2) * q * (1.0 - q)
        got = mfng.edge_moments(meas, n)
        assert math.isclose(got.variance, want, rel_tol=1e-10), (p, k, n)
        assert math.isclose(got.std, math.sqrt(want), rel_tol=1e-10)


def test_edge_variance_by_direct_pair_sum(random_measure):
    """Sum E[X_e X_f] over all pairs of node pairs at toy sizes."""
    rng = np.random.default_rng(404)
    for _ in range(10):
        meas = random_measure(rng, max_m=2, max_k=2)
        n = int(rng.integers(3, 7))
        s = mfng.edge_survival_factor(meas) ** meas.k
        w = star_survival_by_enumeration(meas, 2) ** meas.k
        pairs = list(itertools.combinations(range(n), 2))
        second = 0.0
        for e, f in itertools.product(pairs, repeat=2):
            shared = len(set(e) & set(f))
            if shared == 2:
                second += s
            elif shared == 1:
                second += w
            else:
                second += s * s
        mean = len(pairs) * s
        want = second - mean * mean
        got = mfng.edge_moments(meas, n).variance
        assert math.isclose(got, want, rel_tol=1e-9), (meas.m, meas.k, n)


def test_edge_variance_n2_is_bernoulli(block_measure_k4):
    q = mfng.edge_survival_factor(block_measure_k4) ** 4
    got = mfng.edge_moments(block_measure_k4, 2)
    assert math.isclose(got.variance, q * (1 - q), rel_tol=1e-12)


def test_edge_variance_matches_exact_rationals():
    # Measures whose rows of P l nearly agree make the wedge and squared pair
    # survivals nearly equal; a variance formed as their difference lost up
    # to 3.7e-7 of itself here.  Every seventh measure has a zero row.
    rng = np.random.default_rng(1402)
    worst = 0.0
    for i in range(200):
        m = int(rng.integers(1, 5))
        probs = rng.uniform(0.0, 1.0, size=(m, m))
        probs = (probs + probs.T) / 2.0
        if i % 7 == 0:
            probs[0, :] = probs[:, 0] = 0.0
        meas = mfng.make_measure(rng.dirichlet(2.0 * np.ones(m)), probs,
                                 k=int(rng.integers(1, 15)))
        n = int(10.0 ** rng.uniform(math.log10(2), 7))
        want = exact_edge_variance(meas, n)
        got = mfng.edge_moments(meas, n).variance
        if want == 0:
            assert got == 0.0, (i, n)
            continue
        worst = max(worst, float(abs(Fraction(got) - want) / want))
    assert worst <= 1e-12


def test_edge_std_of_the_cli_golden_is_within_one_ulp_of_exact(block_measure_k4):
    # tests/test_cli.py prints this std at n = 120; its exact value rounds to
    # 72.814363904124889.  The rounding of the float pair survival (one ulp
    # above its exact value) and of the log-space steps leaves the closed
    # form one ulp below, at 72.814363904124875.
    want = math.sqrt(exact_edge_variance(block_measure_k4, 120))
    got = mfng.edge_moments(block_measure_k4, 120).std
    assert format(want, ".17g") == "72.814363904124889"
    assert abs(got - want) <= math.ulp(want)


def test_edge_variance_nonnegative_on_random_measures(random_measure):
    rng = np.random.default_rng(555)
    for _ in range(50):
        meas = random_measure(rng, max_k=6)
        n = int(rng.integers(2, 2000))
        assert mfng.edge_moments(meas, n).variance >= 0.0


# ---------------------------------------------------------------------------
# expected degree counts
# ---------------------------------------------------------------------------

def _degree_counts_by_full_enumeration(meas, n):
    """Average the exact conditional degree distribution over all category
    assignments; rational arithmetic end to end.  Only feasible for tiny n
    and k = 1."""
    assert meas.k == 1
    m = meas.m
    lengths = [Fraction(x) for x in meas.lengths.tolist()]
    probs = [[Fraction(x) for x in row] for row in meas.probs.tolist()]
    counts = [Fraction(0)] * n
    for cats in itertools.product(range(m), repeat=n):
        w = Fraction(1)
        for c in cats:
            w *= lengths[c]
        # degree of node 0 given the assignment is Poisson-binomial; average
        # it by dynamic programming over the other nodes
        dist = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for v in range(1, n):
            p = probs[cats[0]][cats[v]]
            nxt = [Fraction(0)] * n
            for d in range(v):
                nxt[d] += dist[d] * (1 - p)
                nxt[d + 1] += dist[d] * p
            dist = nxt
        for d in range(n):
            counts[d] += w * dist[d] * n  # nodes are exchangeable
    return counts


def _assert_library_matches_oracle(meas, n, exact):
    got = mfng.expected_degree_counts(meas, n)
    assert len(got) == len(exact) == n
    for g, e in zip(got, exact):
        assert math.isclose(g, float(e), rel_tol=1e-12, abs_tol=1e-12)


def test_exact_degree_counts_sum_to_n(random_measure):
    rng = np.random.default_rng(808)
    for _ in range(15):
        meas = random_measure(rng)
        n = int(rng.integers(2, 25))
        counts = exact_degree_counts(meas, n)
        assert all(isinstance(c, Fraction) for c in counts)
        assert sum(counts) == n
        _assert_library_matches_oracle(meas, n, counts)


def test_exact_degree_counts_tiny_case_full_enumeration():
    meas = mfng.make_measure([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], k=1)
    got = exact_degree_counts(meas, 3)
    want = _degree_counts_by_full_enumeration(meas, 3)
    assert got == want == [Fraction(3, 4), Fraction(3, 2), Fraction(3, 4)]
    _assert_library_matches_oracle(meas, 3, got)


def test_exact_degree_counts_random_tiny_cases_full_enumeration(random_measure):
    rng = np.random.default_rng(4242)
    for _ in range(5):
        meas = random_measure(rng, max_m=2, max_k=1)
        got = exact_degree_counts(meas, 4)
        want = _degree_counts_by_full_enumeration(meas, 4)
        for g, w in zip(got, want):
            assert abs(g - w) <= Fraction(1, 10**12)
        _assert_library_matches_oracle(meas, 4, got)


def test_exact_degree_counts_uniform_matches_binomial():
    p, k, n = 0.62, 3, 30
    meas = mfng.make_measure([0.3, 0.7], [[p, p], [p, p]], k=k)
    q = Fraction(p) ** k
    counts = exact_degree_counts(meas, n)
    for d in range(n):
        want = n * math.comb(n - 1, d) * q**d * (1 - q) ** (n - 1 - d)
        assert abs(counts[d] - want) <= Fraction(1, 10**10)
    _assert_library_matches_oracle(meas, n, counts)


def test_degree_counts_match_oracle_on_block_measure(block_measure_k4):
    n = 40
    exact = exact_degree_counts(block_measure_k4, n)
    assert math.isclose(sum(mfng.expected_degree_counts(block_measure_k4, n)), n,
                        rel_tol=1e-12)
    _assert_library_matches_oracle(block_measure_k4, n, exact)


def test_degree_count_mode_limits(block_measure_k4):
    with pytest.raises(DomainError):
        mfng.expected_degree_counts(block_measure_k4, 0)
    with pytest.raises(GraphTooLargeError):
        exact_degree_counts(block_measure_k4, 65)


def test_degree_counts_consistent_with_star_moments(random_measure):
    # sum_d C(d, j) E[N_d] telescopes back to the j-star expectation
    rng = np.random.default_rng(606)
    for _ in range(5):
        meas = random_measure(rng, max_m=2)
        n = int(rng.integers(5, 20))
        counts = exact_degree_counts(meas, n)
        for j in (1, 2, 3):
            total = sum(math.comb(d, j) * counts[d] for d in range(j, n))
            want = mfng.expected_d_stars(meas, n, j)
            assert math.isclose(float(total), want, rel_tol=1e-10)
        _assert_library_matches_oracle(meas, n, counts)


@pytest.mark.parametrize("n", [1000, 100_000])
def test_degree_counts_at_large_n_reproduce_moments(block_measure, n):
    counts = mfng.expected_degree_counts(block_measure, n)
    assert np.all(np.isfinite(counts)) and np.all(counts >= 0.0)
    d = np.arange(n, dtype=float)
    assert math.isclose(counts.sum(), n, rel_tol=1e-10)
    assert math.isclose(d @ counts / 2, mfng.expected_edges(block_measure, n), rel_tol=1e-10)
    for j, binom in ((2, d * (d - 1) / 2), (3, d * (d - 1) * (d - 2) / 6)):
        want = mfng.expected_d_stars(block_measure, n, j)
        assert math.isclose(binom @ counts, want, rel_tol=1e-10)


@pytest.mark.parametrize("p, full_degree", [(1.0, True), (0.0, False)])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_degree_counts_of_degenerate_link_probabilities(p, full_degree, n):
    # q = 1 and q = 0 are point masses at degree n-1 and 0, with no warning
    counts = mfng.expected_degree_counts(mfng.make_measure([1.0], [[p]], k=3), n)
    want = np.zeros(n)
    want[n - 1 if full_degree else 0] = n
    assert np.array_equal(counts, want)


# ---------------------------------------------------------------------------
# clique-number estimate
# ---------------------------------------------------------------------------

def test_clique_estimate_uniform_reference(uniform_measure):
    est = mfng.estimate_clique_number(uniform_measure, 5000)
    assert est.t_star == 5
    assert not est.capped


def test_clique_estimate_complete_graph_hits_cap():
    meas = mfng.make_measure([1.0], [[1.0]], k=1)
    est = mfng.estimate_clique_number(meas, 20)
    assert est.t_star == 8 and est.capped
    est_small = mfng.estimate_clique_number(meas, 6)
    assert est_small.t_star == 6 and not est_small.capped


def test_clique_estimate_empty_graph():
    meas = mfng.make_measure([1.0], [[0.0]], k=1)
    est = mfng.estimate_clique_number(meas, 100)
    assert est.t_star == 1 and not est.capped


# ---------------------------------------------------------------------------
# feature vector plumbing
# ---------------------------------------------------------------------------

def test_parse_feature_accepts_star_and_clique_keys():
    assert mfng.parse_feature("S2") == ("star", 2)
    assert mfng.parse_feature("C4") == ("clique", 4)
    assert mfng.parse_feature("edges") == ("edges", 0)
    for bad in ("s2", "C", "C1", "S0", "X3", "S-1", ""):
        with pytest.raises(DomainError):
            mfng.parse_feature(bad)


def test_expected_feature_vector_matches_individual_formulas(block_measure):
    n = 300
    vec = mfng.expected_feature_vector(block_measure, n)
    assert vec.value("edges") == mfng.expected_edges(block_measure, n)
    assert vec.value("S2") == mfng.expected_d_stars(block_measure, n, 2)
    assert vec.value("S3") == mfng.expected_d_stars(block_measure, n, 3)
    assert vec.value("C3") == mfng.expected_t_cliques(block_measure, n, 3)
    assert vec.value("C4") == mfng.expected_t_cliques(block_measure, n, 4)
    assert list(vec.keys()) == ["edges", "S2", "S3", "S4", "C3", "C4"]


def test_feature_vector_round_trip(block_measure):
    requests = {("edges", "S2", "C3"): ["edges", "S2", "C3"],
                ("C3", "edges", "S2", "C2"): ["edges", "S2", "C2", "C3"]}
    for features, canonical in requests.items():
        vec = mfng.expected_feature_vector(block_measure, 50, features=features)
        assert list(vec.keys()) == canonical
        back = type(vec).from_dict(vec.as_dict())
        assert back.as_dict() == vec.as_dict()
        assert list(back.keys()) == canonical
    with pytest.raises(DomainError):
        mfng.FeatureVector.from_dict({"edges": 1.0, "X3": 2.0})
    with pytest.raises(DomainError):
        mfng.expected_feature_vector(block_measure, 50, features=("edges", "X3"))


def test_an_empty_request_is_the_empty_vector(block_measure):
    # As feature_vector(graph, []) is; no placement or survival is evaluated.
    schedule = make_noise_schedule(block_measure, 0.1, np.random.default_rng(3))
    for model in (block_measure, schedule):
        for features in ([], ()):
            vec = mfng.expected_feature_vector(model, 50, features)
            assert vec.keys() == () and vec.as_dict() == {}
    assert mfng.feature_vector(mfng.Graph.empty(5), []).as_dict() == {}


# ---------------------------------------------------------------------------
# noise schedules: one matrix per level
# ---------------------------------------------------------------------------

def random_schedule(rng, max_m=3, max_k=4, zero_row=False):
    """A schedule of 1..max_k random symmetric level matrices over m
    categories; with zero_row, one level's first category links to none."""
    m, k = int(rng.integers(1, max_m + 1)), int(rng.integers(1, max_k + 1))
    matrices = []
    for _ in range(k):
        probs = rng.uniform(0.0, 1.0, size=(m, m))
        matrices.append((probs + probs.T) / 2.0)
    if zero_row:
        matrices[-1][0, :] = matrices[-1][:, 0] = 0.0
    return NoiseSchedule(tuple(matrices), np.zeros(k), rng.dirichlet(2.0 * np.ones(m)))


def test_schedule_expectations_match_per_level_enumeration():
    rng = np.random.default_rng(2010)
    keys = ("edges", "S2", "S3", "C3", "C4")
    worst = 0.0
    for _ in range(40):
        schedule = random_schedule(rng)
        n = int(rng.integers(4, 13))
        got = mfng.expected_feature_vector(schedule, n, keys)
        want = exact_expected_features(schedule, n, keys)
        for key in keys:
            worst = max(worst, abs(got.value(key) - want.value(key)) / want.value(key))
    assert worst <= 1e-12


def test_schedule_edge_variance_matches_exact_rationals():
    rng = np.random.default_rng(1403)
    worst = 0.0
    for i in range(120):
        schedule = random_schedule(rng, max_k=6, zero_row=i % 7 == 0)
        n = int(10.0 ** rng.uniform(math.log10(2), 7))
        want = exact_edge_variance(schedule, n)
        got = mfng.edge_moments(schedule, n).variance
        if want == 0:
            assert got == 0.0, (i, n)
            continue
        worst = max(worst, float(abs(Fraction(got) - want) / want))
    assert worst <= 1e-12


def test_a_schedule_entry_is_the_entry_asked_for_alone():
    # Each feature's level sum takes the same steps, in the same order,
    # whatever else is asked for; 19 levels take numpy's unrolled sum.
    meas = mfng.make_measure([0.3, 0.7], [[0.9, 0.35], [0.35, 0.6]], k=19)
    schedule = make_noise_schedule(meas, 0.1, np.random.default_rng(5))
    together = mfng.expected_feature_vector(schedule, 10_000)
    for key in together.keys():
        assert together.value(key) == mfng.expected_feature_vector(
            schedule, 10_000, [key]).value(key)
    assert together.value("edges") == mfng.edge_moments(schedule, 10_000).mean


@pytest.mark.parametrize("matrices, lengths, error", [
    ((), [0.5, 0.5], DomainError),
    ((HALF,), [0.3, 0.8], LengthVectorError),
    ((HALF, [[0.5, 0.6], [0.4, 0.5]]), [0.5, 0.5], NonSymmetricError),
    ((HALF, [[0.5]]), [0.5, 0.5], ProbabilityRangeError),
    ((HALF, [[0.5, 1.5], [1.5, 0.5]]), [0.5, 0.5], ProbabilityRangeError),
])
def test_a_schedule_checks_its_levels(matrices, lengths, error):
    with pytest.raises(error):
        NoiseSchedule(matrices, np.zeros(len(matrices)), lengths)
