"""Category assignment, exact samplers, fast box sampler, noisy variant."""

import math

import numpy as np
import pytest

import mfng
from mfng import (
    AllZeroMeasureError,
    DegenerateDiagonalError,
    DomainError,
    StalledError,
    UnsupportedMError,
)
from mfng.sampler import (
    _MAX_CONSECUTIVE_REJECTS,
    _PAIR_BLOCK,
    CategoryIndex,
    _draw_levels,
    _target_edge_moments,
    build_q,
    encode_categories,
    make_noise_schedule,
)


def spawned(base, *key):
    return np.random.default_rng(np.random.SeedSequence(base, spawn_key=key))


def decode_categories(codes, m, k):
    """Inverse of encode_categories: (..., k) base-m digit arrays."""
    out = np.empty(np.shape(codes) + (k,), dtype=np.int64)
    rem = np.asarray(codes, dtype=np.int64)
    for pos in range(k - 1, -1, -1):
        out[..., pos] = rem % m
        rem = rem // m
    return out


# ---------------------------------------------------------------------------
# categories
# ---------------------------------------------------------------------------

def test_assignment_shapes_and_ranges(block_measure):
    levels = _draw_levels(100, block_measure.k, block_measure.lengths,
                          np.random.default_rng(0))
    assert levels.shape == (100, 10)
    assert levels.min() >= 0 and levels.max() < 2
    assert np.all(encode_categories(levels, 2) < 2**10)


def test_assignment_deterministic(block_measure):
    a = _draw_levels(50, block_measure.k, block_measure.lengths, np.random.default_rng(123))
    b = _draw_levels(50, block_measure.k, block_measure.lengths, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(8)
    for m, k in ((2, 5), (3, 4), (5, 7)):
        levels = rng.integers(0, m, size=(40, k))
        codes = encode_categories(levels, m)
        assert np.array_equal(decode_categories(codes, m, k), levels)


def test_category_frequencies_follow_lengths():
    meas = mfng.make_measure([0.1, 0.9], [[0.5, 0.5], [0.5, 0.5]], k=1)
    levels = _draw_levels(20000, meas.k, meas.lengths, np.random.default_rng(99))
    frac = float((levels[:, 0] == 0).mean())
    assert abs(frac - 0.1) < 0.01  # ~4.7 sigma band


def test_category_index_partitions_nodes(block_measure):
    levels = _draw_levels(200, block_measure.k, block_measure.lengths,
                          np.random.default_rng(5))
    codes = encode_categories(levels, 2)
    index = CategoryIndex(codes)
    seen = np.concatenate([index.nodes[start:start + count]
                           for start, count in zip(index.starts, index.counts)])
    assert sorted(seen.tolist()) == list(range(200))
    # lookup finds every real code and rejects a foreign one
    pos = index.lookup(codes)
    assert np.all(pos >= 0)
    assert np.all(index.codes[pos] == codes)
    missing = index.lookup(np.array([2**40]))
    assert missing[0] == -1


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def test_naive_deterministic(block_measure_k4):
    g1 = mfng.naive_sample(60, block_measure_k4, np.random.default_rng(7))
    g2 = mfng.naive_sample(60, block_measure_k4, np.random.default_rng(7))
    assert g1 == g2


# Spans three row blocks, the last one partial.
N_BLOCKS = 2 * _PAIR_BLOCK + 37


def test_naive_complete_and_empty_extremes():
    full = mfng.make_measure([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]], k=3)
    empty = mfng.make_measure([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]], k=3)
    for n in (12, N_BLOCKS):
        g = mfng.naive_sample(n, full, np.random.default_rng(0))
        assert g.edge_count == math.comb(n, 2)
        g = mfng.naive_sample(n, empty, np.random.default_rng(0))
        assert g.edge_count == 0


def test_naive_is_intersection_over_k_copies(block_measure_k4):
    meas = block_measure_k4
    assert N_BLOCKS % _PAIR_BLOCK and N_BLOCKS > 2 * _PAIR_BLOCK
    for seed in (0, 1, 2):
        a = mfng.naive_sample(N_BLOCKS, meas, np.random.default_rng(seed))
        b = mfng.sample_by_intersection(
            N_BLOCKS, [meas.probs] * meas.k, meas.lengths, np.random.default_rng(seed))
        assert a == b


def test_naive_single_node():
    meas = mfng.make_measure([1.0], [[0.9]], k=1)
    g = mfng.naive_sample(1, meas, np.random.default_rng(0))
    assert g.n == 1 and g.edge_count == 0


def test_naive_edge_rate_matches_closed_form(block_measure_k4):
    n, runs = 80, 300
    total = 0
    for i in range(runs):
        total += mfng.naive_sample(n, block_measure_k4, spawned(1010, i)).edge_count
    mean = total / runs
    em = mfng.edge_moments(block_measure_k4, n)
    se = em.std / math.sqrt(runs)
    assert abs(mean - em.mean) < 4.0 * se


def test_intersection_deterministic(block_measure_k4):
    mats = [block_measure_k4.probs] * 4
    lengths = block_measure_k4.lengths
    g1 = mfng.sample_by_intersection(70, mats, lengths, np.random.default_rng(3))
    g2 = mfng.sample_by_intersection(70, mats, lengths, np.random.default_rng(3))
    assert g1 == g2


def test_intersection_single_level_edge_rate():
    meas = mfng.make_measure([0.3, 0.7], [[0.9, 0.2], [0.2, 0.6]], k=1)
    n, runs = 60, 300
    total = 0
    for i in range(runs):
        g = mfng.sample_by_intersection(
            n, [meas.probs], meas.lengths, spawned(77, i))
        total += g.edge_count
    em = mfng.edge_moments(meas, n)
    se = em.std / math.sqrt(runs)
    assert abs(total / runs - em.mean) < 4.0 * se


def test_intersection_rejects_mismatched_matrices(block_measure_k4):
    with pytest.raises(mfng.MeasureValidationError):
        mfng.sample_by_intersection(
            10, [np.array([[0.5]])], block_measure_k4.lengths, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# edge-mass table
# ---------------------------------------------------------------------------

def test_build_q_values(block_measure_k4):
    table = build_q(block_measure_k4.probs, block_measure_k4.lengths)
    lengths = block_measure_k4.lengths
    want = block_measure_k4.probs * np.outer(lengths, lengths)
    assert np.allclose(table.q, want, rtol=1e-15)
    assert math.isclose(table.total, mfng.edge_survival_factor(block_measure_k4),
                        rel_tol=1e-12)


def test_build_q_rejects_zero_mass():
    meas = mfng.make_measure([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]], k=1)
    with pytest.raises(AllZeroMeasureError):
        build_q(meas.probs, meas.lengths)


def test_q_table_sampling_respects_mass():
    # diagonal mass only: off-diagonal cells must never be drawn
    meas = mfng.make_measure([0.5, 0.5], [[0.4, 0.0], [0.0, 0.4]], k=1)
    table = build_q(meas.probs, meas.lengths)
    i, j = table.sample_pairs(np.random.default_rng(4), 4000)
    assert np.all(i == j)
    frac_zero = float((i == 0).mean())
    assert abs(frac_zero - 0.5) < 0.04


# ---------------------------------------------------------------------------
# fast sampler
# ---------------------------------------------------------------------------

def test_fast_deterministic(block_measure):
    g1 = mfng.fast_sample(500, block_measure, rng=np.random.default_rng(11))
    g2 = mfng.fast_sample(500, block_measure, rng=np.random.default_rng(11))
    assert g1 == g2


def test_fast_keeps_isolated_nodes(block_measure):
    g = mfng.fast_sample(3000, block_measure, rng=np.random.default_rng(1))
    assert g.n == 3000
    assert (g.degrees() == 0).any()  # sparse enough that some nodes stay alone


def test_fast_two_nodes_certain_edge():
    meas = mfng.make_measure([1.0], [[1.0]], k=1)
    # the only possible graph has the one edge; the normal target rounds to it
    g = mfng.fast_sample(2, meas, rng=np.random.default_rng(0))
    assert g.edge_count in (0, 1)
    counts = [
        mfng.fast_sample(2, meas, rng=spawned(3, i)).edge_count for i in range(50)
    ]
    assert max(counts) == 1


def test_fast_simple_graph_no_self_loops(block_measure_k4):
    g = mfng.fast_sample(400, block_measure_k4, rng=np.random.default_rng(9))
    edges = g.edge_array()
    assert np.all(edges[:, 0] < edges[:, 1])
    # canonical storage also implies no duplicates
    keys = edges[:, 0] * g.n + edges[:, 1]
    assert np.unique(keys).size == keys.size


def test_fast_edge_count_concentrates(block_measure):
    n = 2000
    want = mfng.expected_edges(block_measure, n)
    counts = [
        mfng.fast_sample(n, block_measure, rng=spawned(21, i)).edge_count
        for i in range(20)
    ]
    assert abs(np.mean(counts) - want) / want < 0.05


def test_fast_respects_accuracy_knob(block_measure):
    g = mfng.fast_sample(800, block_measure, np.random.default_rng(2), accuracy=4.0)
    want = mfng.expected_edges(block_measure, 800)
    assert abs(g.edge_count - want) / want < 0.25


def test_fast_stops_at_the_drawn_target(block_measure):
    # The target is the first draw of the generator: a normal around the
    # closed-form edge mean, truncated to an int.
    n = 2000
    moments = _target_edge_moments(n, [block_measure.probs] * block_measure.k,
                                   block_measure.lengths)
    for i in range(5):
        target = int(max(spawned(17, i).normal(moments.mean, moments.std), 0.0))
        assert mfng.fast_sample(n, block_measure, rng=spawned(17, i)).edge_count == target


def test_fast_keeps_dense_core_cliques():
    # A p = 1 core makes later boxes collide with earlier edges; without
    # per-box retries, or with rounds larger than the remaining need, the
    # core fills less and the triangle count falls to about half.
    meas = mfng.make_measure([0.5, 0.5], [[1.0, 0.05], [0.05, 0.05]], k=3)
    n, runs = 400, 60
    c3 = s2 = 0
    for i in range(runs):
        g = mfng.fast_sample(n, meas, rng=spawned(40, i))
        c3 += mfng.count_triangles(g)
        s2 += mfng.count_stars(g, 2)
    assert c3 / runs >= 0.65 * mfng.expected_t_cliques(meas, n, 3)
    assert s2 / runs >= 0.85 * mfng.expected_d_stars(meas, n, 2)


def test_fast_stalls_on_unreachable_target():
    # Both nodes of the only populated block are connected after one edge;
    # the drawn target asks for more, so the sampler must give up.
    meas = mfng.make_measure([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]], k=1)
    with pytest.raises(StalledError) as info:
        mfng.fast_sample(6, meas, rng=np.random.default_rng(13))
    err = info.value
    assert err.streak > _MAX_CONSECUTIVE_REJECTS
    assert 0 < err.placed < err.target
    assert str(err) == (f"no edge placed in {err.streak} consecutive boxes "
                        f"({err.placed} of {err.target} edges placed)")


def test_fast_config_validation(block_measure):
    for accuracy in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            mfng.fast_sample(100, block_measure, np.random.default_rng(0),
                             accuracy=accuracy)
        with pytest.raises(DomainError):
            mfng.noisy_sample(100, block_measure, 0.1, np.random.default_rng(0),
                              accuracy=accuracy)


def test_target_moments_match_constant_schedule(block_measure):
    got = _target_edge_moments(
        1500, [block_measure.probs] * block_measure.k, block_measure.lengths)
    em = mfng.edge_moments(block_measure, 1500)
    assert math.isclose(got.mean, em.mean, rel_tol=1e-12)
    assert math.isclose(got.std, em.std, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# noise schedule
# ---------------------------------------------------------------------------

def test_zero_noise_schedule_consumes_no_randomness(block_measure):
    rng = np.random.default_rng(42)
    before = rng.bit_generator.state
    sched = make_noise_schedule(block_measure, 0.0, rng)
    assert rng.bit_generator.state == before
    assert len(sched.level_matrices) == block_measure.k
    for mat in sched.level_matrices:
        assert mat is block_measure.probs or np.array_equal(mat, block_measure.probs)
    assert np.all(sched.offsets == 0.0)


def test_noise_schedule_formula(block_measure):
    p = block_measure.probs
    diag = p[0, 0] + p[1, 1]
    sched = make_noise_schedule(block_measure, 0.08, np.random.default_rng(6))
    assert len(sched.level_matrices) == block_measure.k
    for mu, mat in zip(sched.offsets, sched.level_matrices):
        assert abs(mu) <= 0.08
        want = np.array([
            [p[0, 0] - 2 * mu * p[0, 0] / diag, p[0, 1] + mu],
            [p[1, 0] + mu, p[1, 1] - 2 * mu * p[1, 1] / diag],
        ])
        assert np.allclose(mat, np.clip(want, 0.0, 1.0), rtol=0, atol=1e-15)
        assert mat[0, 1] == mat[1, 0]
        assert np.all((mat >= 0.0) & (mat <= 1.0))


def test_noise_schedule_clamps_to_unit_interval():
    meas = mfng.make_measure([0.5, 0.5], [[0.99, 0.98], [0.98, 0.99]], k=6)
    sched = make_noise_schedule(meas, 1.0, np.random.default_rng(0))
    for mat in sched.level_matrices:
        assert np.all((mat >= 0.0) & (mat <= 1.0))


def test_noise_schedule_rejects_bad_inputs(three_cat_measure, block_measure):
    with pytest.raises(UnsupportedMError):
        make_noise_schedule(three_cat_measure, 0.1, np.random.default_rng(0))
    with pytest.raises(DomainError):
        make_noise_schedule(block_measure, 1.5, np.random.default_rng(0))
    degenerate = mfng.make_measure([0.5, 0.5], [[0.0, 0.9], [0.9, 0.0]], k=2)
    with pytest.raises(DegenerateDiagonalError):
        make_noise_schedule(degenerate, 0.1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# noisy sampler
# ---------------------------------------------------------------------------

def test_noisy_zero_amplitude_reproduces_fast(block_measure):
    n = 1200
    a = mfng.noisy_sample(n, block_measure, 0.0, rng=np.random.default_rng(19))
    b = mfng.fast_sample(n, block_measure, rng=np.random.default_rng(19))
    assert a == b


def test_noisy_zero_amplitude_reproduces_intersection(block_measure_k4):
    n = 100
    schedule = make_noise_schedule(block_measure_k4, 0.0, np.random.default_rng(19))
    a = mfng.sample_by_intersection(
        n, schedule.level_matrices, block_measure_k4.lengths, np.random.default_rng(19))
    b = mfng.naive_sample(n, block_measure_k4, np.random.default_rng(19))
    assert a == b


def test_noisy_deterministic_and_noise_dependent(block_measure):
    n = 800
    a = mfng.noisy_sample(n, block_measure, 0.1, rng=np.random.default_rng(23))
    b = mfng.noisy_sample(n, block_measure, 0.1, rng=np.random.default_rng(23))
    c = mfng.noisy_sample(n, block_measure, 0.05, rng=np.random.default_rng(23))
    assert a == b
    assert a != c


def test_noisy_exact_method_runs(block_measure_k4):
    rng = np.random.default_rng(4)
    schedule = make_noise_schedule(block_measure_k4, 0.1, rng)
    g = mfng.sample_by_intersection(
        80, schedule.level_matrices, block_measure_k4.lengths, rng)
    assert g.n == 80
