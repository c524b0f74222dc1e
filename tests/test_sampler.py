"""Category assignment, exact samplers, fast box sampler, noisy variant."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import mfng
from mfng import (
    DegenerateDiagonalError,
    DomainError,
    Graph,
    StalledError,
    TooLargeError,
    UnsupportedMError,
)
from mfng import sampler
from mfng.features import _search_sorted
from mfng.measure import NoiseSchedule
from mfng.oracle import exact_subgraph_probability
from mfng.sampler import (
    _MAX_CONSECUTIVE_REJECTS,
    CategoryIndex,
    QTable,
    _draw_levels,
    _level_groups,
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


# Measures as (lengths, probs, k).
_BLOCK_K10 = ((0.25, 0.75), ((0.59, 0.43), (0.43, 0.78)), 10)
_THREE_CAT = ([0.2, 0.3, 0.5], [[0.9, 0.5, 0.2], [0.5, 0.7, 0.4], [0.2, 0.4, 0.6]], 3)
_DENSE_CORE = ([0.5, 0.5], [[1.0, 0.05], [0.05, 0.05]], 3)
_SKEWED_K7 = ([0.2, 0.8], [[1.0, 0.55], [0.55, 0.15]], 7)


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
    # every real code's box holds exactly the nodes with that code
    distinct = np.unique(codes)
    starts, counts = index.lookup(distinct)
    seen = []
    for code, start, count in zip(distinct, starts, counts):
        box = index.nodes[start:start + count]
        assert box.size == count > 0
        assert np.all(codes[box] == code)
        seen.extend(box.tolist())
    assert sorted(seen) == list(range(200))
    # per node, the box of its own code; a foreign code has an empty box
    starts, counts = index.lookup(codes)
    assert np.all(counts == np.bincount(codes)[codes])
    _, missing = index.lookup(np.array([2**40, -1]))
    assert missing.tolist() == [0, 0]
    # the boxes a search of each query finds, in any query order: unsorted
    # with repeats, below and above every occupied code, and empty
    outside = [index.codes[0] - 1, index.codes[-1] + 1]
    for query in (codes, np.array([*outside, codes[3], *outside, codes[0]]),
                  np.empty(0, dtype=np.int64)):
        pos, hit = _search_sorted(index.codes, query)
        starts, counts = index.lookup(query)
        assert starts.shape == counts.shape == query.shape
        assert np.array_equal(starts, index.starts[pos])
        assert np.array_equal(counts, np.where(hit, index.counts[pos], 0))


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def test_naive_deterministic(block_measure_k4):
    g1 = mfng.naive_sample(60, block_measure_k4, np.random.default_rng(7))
    g2 = mfng.naive_sample(60, block_measure_k4, np.random.default_rng(7))
    assert g1 == g2


# Many nodes on each of the m^k = 16 codes of the k = 4 block measure.
N_CROWDED = 549


def test_naive_complete_and_empty_extremes():
    full = mfng.make_measure([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]], k=3)
    empty = mfng.make_measure([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]], k=3)
    for n in (12, N_CROWDED):
        g = mfng.naive_sample(n, full, np.random.default_rng(0))
        assert g.edge_count == math.comb(n, 2)
        g = mfng.naive_sample(n, empty, np.random.default_rng(0))
        assert g.edge_count == 0


def k_copies(meas):
    """The schedule of k copies of a measure's matrix, every offset 0."""
    return NoiseSchedule((meas.probs,) * meas.k, np.zeros(meas.k), meas.lengths)


def test_naive_is_intersection_over_k_copies(block_measure_k4):
    # The graph is the intersection of k level graphs: a measure and the
    # schedule of k copies of its matrix draw the same one.
    meas = block_measure_k4
    for seed in (0, 1, 2):
        a = mfng.naive_sample(N_CROWDED, meas, np.random.default_rng(seed))
        assert a == mfng.naive_sample(N_CROWDED, k_copies(meas), np.random.default_rng(seed))


def intersection_sample(n, meas, rng):
    return mfng.naive_sample(n, k_copies(meas), rng)


def fast_over_k_copies(n, meas, rng):
    return mfng.fast_sample(n, k_copies(meas), rng)


def noisy_sample(n, meas, rng):
    return mfng.noisy_sample(n, meas, 0.05, rng)


SAMPLERS = [mfng.naive_sample, intersection_sample, mfng.fast_sample, fast_over_k_copies,
            noisy_sample]


@pytest.mark.parametrize("sample", SAMPLERS, ids=lambda f: f.__name__)
def test_samplers_share_one_domain(block_measure_k4, sample):
    with pytest.raises(DomainError):
        sample(0, block_measure_k4, np.random.default_rng(0))
    g = sample(1, block_measure_k4, np.random.default_rng(0))
    assert (g.n, g.edge_count) == (1, 0)


def test_a_measure_whose_pairs_cannot_survive_samples_the_empty_graph():
    zero = mfng.make_measure([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]], k=3)
    for n in (2, 50):
        fast = mfng.fast_sample(n, zero, np.random.default_rng(0))
        assert fast == mfng.naive_sample(n, zero, np.random.default_rng(0))
        assert (fast.n, fast.edge_count) == (n, 0)
        # no noise, no rebalancing: the zero diagonal is no obstacle
        assert mfng.noisy_sample(n, zero, 0.0, np.random.default_rng(0)) == fast


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
    schedule = k_copies(block_measure_k4)
    g1 = mfng.naive_sample(70, schedule, np.random.default_rng(3))
    g2 = mfng.naive_sample(70, schedule, np.random.default_rng(3))
    assert g1 == g2


def test_intersection_single_level_edge_rate():
    meas = mfng.make_measure([0.3, 0.7], [[0.9, 0.2], [0.2, 0.6]], k=1)
    n, runs = 60, 300
    total = 0
    for i in range(runs):
        total += mfng.naive_sample(n, k_copies(meas), spawned(77, i)).edge_count
    em = mfng.edge_moments(meas, n)
    se = em.std / math.sqrt(runs)
    assert abs(total / runs - em.mean) < 4.0 * se


class CountingGenerator(np.random.Generator):
    """A generator that counts the uniforms drawn through ``random``."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.uniforms = 0

    def random(self, size=None, *args, **kwargs):
        self.uniforms += 1 if size is None else math.prod(np.atleast_1d(size))
        return super().random(size, *args, **kwargs)


@pytest.mark.parametrize("spec, n, seed", [
    ((*_SKEWED_K7[:2], 6), 10_000, 2),
    ((*_BLOCK_K10[:2], 34), 20_000, 0),
], ids=["skewed-with-certain-pairs", "block-far-past-log-m-n"])
def test_exact_sampler_work_is_far_below_the_pair_count(spec, n, seed):
    # A draw asks for fewer uniforms than 2% of the C(n, 2) pairs: at k = 6
    # on the skewed measure two or three nodes share code 0, whose pairs
    # are certain, and at k = 34 most levels lie past log_2 n.
    rng = CountingGenerator(seed)
    g = mfng.naive_sample(n, mfng.make_measure(*spec[:2], k=spec[2]), rng)
    assert g.n == n and 0 < rng.uniforms < 0.02 * math.comb(n, 2), rng.uniforms


def test_exact_sampler_keeps_every_certain_pair():
    # At b = 0 the skewed measure links two nodes of the all-zero code with
    # probability 1: every such pair is an edge, on the naive and the
    # schedule route alike, and some seed puts two or more nodes there.
    meas = mfng.make_measure(*_SKEWED_K7[:2], k=2)
    schedule = make_noise_schedule(meas, 0.0)
    n, crowded = 20, 0
    for seed in range(16):
        levels = _draw_levels(n, meas.k, meas.lengths, np.random.default_rng(seed))
        zero = np.flatnonzero(np.all(levels == 0, axis=1))
        a = mfng.naive_sample(n, meas, np.random.default_rng(seed))
        b = mfng.naive_sample(n, schedule, np.random.default_rng(seed))
        assert a == b and a.n == n
        keys = np.array([u * n + v for u, v in itertools.combinations(zero, 2)], dtype=np.int64)
        assert _search_sorted(a._keys, keys)[1].all()
        crowded += zero.size >= 2
    assert crowded > 0


def labelled_graph_law(model, n):
    """Probability of each labelled graph on n nodes, indexed by the bit
    mask of its pairs in ``combinations(range(n), 2)`` order: inclusion–
    exclusion over the oracle's probabilities that every pair of a superset
    of its edges is present."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = range(1 << len(pairs))
    present = [exact_subgraph_probability(
        model, [pair for i, pair in enumerate(pairs) if mask >> i & 1], num_nodes=n)
        for mask in masks]
    return np.array([sum((-1) ** bin(extra).count("1") * present[mask | extra]
                         for extra in masks if extra & mask == 0) for mask in masks])


def labelled_graph_counts(sample, n, draws, rng):
    """How often each labelled graph on n nodes comes out of draws calls."""
    pairs = list(itertools.combinations(range(n), 2))
    bit = np.zeros(n * n, dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        bit[u * n + v] = 1 << i
    return np.bincount([bit[sample(n, rng)._keys].sum() for _ in range(draws)],
                       minlength=1 << len(pairs))


_PAST_BUDGET = ([0.1, 0.2, 0.3, 0.4], [[0.99, 0.9, 0.85, 0.9], [0.9, 0.97, 0.9, 0.8],
                                       [0.85, 0.9, 0.95, 0.9], [0.9, 0.8, 0.9, 0.93]], 9)
_CERTAIN_CORE = NoiseSchedule((np.array([[1.0, 0.5], [0.5, 0.3]]),
                               np.array([[1.0, 0.2], [0.2, 0.7]])),
                              np.zeros(2), np.array([0.4, 0.6]))
_CERTAIN_WITH_A_TAIL = NoiseSchedule(_CERTAIN_CORE.level_matrices
                                     + (np.array([[1.0, 0.4], [0.4, 0.8]]),),
                                     np.zeros(3), np.array([0.4, 0.6]))
_LAW_CASES = {
    "block": mfng.make_measure(*_BLOCK_K10[:2], k=3),
    "m-3": mfng.make_measure(*_THREE_CAT[:2], k=2),
    # p = 1 for code 00 with itself: two nodes there are enumerated.
    "schedule-with-a-certain-cell": _CERTAIN_CORE,
    # m^k past the cell budget: 8 of its 9 levels lie past the head.
    "past-the-cell-budget": mfng.make_measure(*_PAST_BUDGET),
    # At n = 3 and 4 the head is 2 levels, so enumerated pairs of code 00
    # take the third level's coin.
    "certain-cell-with-a-tail": _CERTAIN_WITH_A_TAIL,
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("case", _LAW_CASES)
def test_exact_draws_follow_the_whole_graph_law(case, n):
    # The frequency of every labelled graph on n nodes over 20,000 draws
    # against its probability: Pearson's chi-square, with graphs expected
    # fewer than 5 times pooled, passes unless its tail is below a 4-sigma
    # band's (6.3e-5).
    from scipy.stats import chi2

    model = _LAW_CASES[case]

    def sample(n, rng):
        return mfng.naive_sample(n, model, rng)

    law = labelled_graph_law(model, n)
    assert law.min() > 0 and math.isclose(law.sum(), 1.0, rel_tol=1e-12)
    draws = 20_000
    counts = labelled_graph_counts(sample, n, draws, np.random.default_rng(n))
    expected = law * draws
    rare = expected < 5
    observed, expected = counts[~rare], expected[~rare]
    if rare.any():
        observed = np.append(observed, counts[rare].sum())
        expected = np.append(expected, law[rare].sum() * draws)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert chi2.sf(statistic, observed.size - 1) > 6.3e-5, (statistic, observed.size - 1)


def test_exact_draws_follow_the_closed_forms_beyond_log_m_n_levels():
    # k = 14 levels over n = 3000 nodes (log2 n = 11.6), and k = 20 over
    # n = 20,000 (5 levels past the head of 15): most codes hold no node,
    # the regime where the fast sampler's clustering drifts.  The mean S2,
    # S3 and C3 of 12 draws lie within 4 se of the closed forms.
    keys, draws = ("S2", "S3", "C3"), 12
    for k, n in ((14, 3000), (20, 20_000)):
        meas = mfng.make_measure(*_BLOCK_K10[:2], k=k)
        counts = np.array([
            [mfng.feature_vector(g, keys).value(key) for key in keys]
            for g in (mfng.naive_sample(n, meas, spawned(10 * k, i)) for i in range(draws))])
        want = mfng.expected_feature_vector(meas, n, keys)
        z = (counts.mean(axis=0) - [want.value(key) for key in keys]) / (
            counts.std(axis=0, ddof=1) / math.sqrt(draws))
        assert np.all(np.abs(z) < 4.0), (k, n, dict(zip(keys, z)))


# ---------------------------------------------------------------------------
# group tables
# ---------------------------------------------------------------------------

class FixedUniforms:
    """Stands in for a generator whose ``random(size)`` returns given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self.values.size
        return self.values


_TABLE_CASES = [
    ([1.0], [[0.3]]),
    ([0.25, 0.75], [[0.0, 0.43], [0.43, 0.78]]),  # zero-mass first cell
    ([0.2, 0.3, 0.5], [[0.9, 0.5, 0.0], [0.5, 0.7, 0.0], [0.0, 0.0, 0.0]]),  # zero last row
    ([0.2, 0.3, 0.5], np.diag([0.4, 0.0, 0.6])),  # diagonal mass only
    # m = 5 with zero-mass first and last cells
    ([0.1, 0.2, 0.3, 0.15, 0.25], np.full((5, 5), 0.5) - np.diag([0.5, 0, 0, 0, 0.5])),
]


def group_of(lengths, probs, k=10):
    """The first group of k levels and its table: 10 levels at m = 1, 5 at
    m = 2 (1024 cells), 3 at m = 3 (729 cells), 2 at m = 5.  Level r's
    matrix is probs ** (1 + r / 2): zero cells stay zero, and the levels
    differ in shape, so the table's level order shows."""
    lengths, probs = np.asarray(lengths, dtype=float), np.asarray(probs, dtype=float)
    group = _level_groups(lengths.size, k)[0]
    matrices = [probs ** (1.0 + r / 2.0) for r in range(group.stop)]
    return matrices, lengths, build_q(matrices, lengths)


def group_mass(matrices, lengths):
    """Normalised mass of every cell I * m^g + J, one product per cell over
    the levels' digits of I and J, first level most significant."""
    m, g = lengths.size, len(matrices)
    tuple_i, tuple_j = np.divmod(np.arange(m ** (2 * g)), m ** g)
    digits_i, digits_j = decode_categories(tuple_i, m, g), decode_categories(tuple_j, m, g)
    mass = np.ones(tuple_i.size)
    for r, p in enumerate(matrices):
        i, j = digits_i[:, r], digits_j[:, r]
        mass *= p[i, j] * lengths[i] * lengths[j]
    return mass / mass.sum()


def test_build_q_values():
    for lengths, probs in _TABLE_CASES:
        matrices, lengths, table = group_of(lengths, probs)
        m, g = lengths.size, len(matrices)
        size = table.prob.size
        assert table.width == m ** g and size == table.width ** 2 <= 1024
        assert np.all((0 <= table.prob) & (table.prob <= 1))
        # Cell c is drawn from its own slot with prob[c], and from slot j
        # with 1 - prob[j] wherever alias[j] == c.
        implied = (table.prob + np.bincount(table.alias, weights=1.0 - table.prob,
                                            minlength=size)) / size
        want = group_mass(matrices, lengths)
        assert np.array_equal(implied == 0, want == 0)
        assert np.allclose(implied, want, rtol=1e-12, atol=0.0)
        digits = decode_categories(np.arange(table.width), m, g)
        assert np.allclose(table.lengths, np.prod(lengths[digits], axis=1),
                           rtol=1e-15, atol=0.0)


def test_q_table_sampling_respects_mass():
    # A zero-mass cell is never drawn: not for random uniforms, 0, every
    # slot's left edge c / K, nor the largest uniform below one, at K = 729
    # among others.
    sizes = set()
    for lengths, probs in _TABLE_CASES:
        matrices, lengths, table = group_of(lengths, probs)
        mass = group_mass(matrices, lengths)
        size = table.prob.size
        sizes.add(size)
        for u in (np.random.default_rng(size).random(5000), np.array([0.0]),
                  np.arange(size) / size, np.array([np.nextafter(1.0, 0.0)])):
            i, j = table.sample_pairs(FixedUniforms(u), u.size)
            assert np.all(mass[i * table.width + j] > 0)
    assert sizes == {1, 1024, 729, 625}


@pytest.mark.parametrize("lengths, probs", _TABLE_CASES)
def test_q_table_draw_is_the_alias_cell(lengths, probs):
    _, _, table = group_of(lengths, probs)
    size = table.prob.size
    u = np.concatenate([np.random.default_rng(size).random(400), np.arange(size) / size,
                        [0.0, np.nextafter(1.0, 0.0)]])
    want = []
    for x in (u * size).tolist():
        c = min(math.floor(x), size - 1)
        want.append(c if x - c < table.prob[c] else table.alias[c])
    i, j = table.sample_pairs(FixedUniforms(u), u.size)
    assert i.dtype == j.dtype == np.int64
    assert np.array_equal(i * table.width + j, want)


def test_q_table_cell_frequencies_follow_mass(three_cat_measure):
    meas, draws = three_cat_measure, 60_000
    matrices = [meas.probs] * meas.k
    table = build_q(matrices, meas.lengths)
    assert table.prob.size == 729
    i, j = table.sample_pairs(np.random.default_rng(6), draws)
    freq = np.bincount(i * table.width + j, minlength=table.prob.size) / draws
    want = group_mass(matrices, meas.lengths)
    se = np.sqrt(want * (1.0 - want) / draws)
    assert np.all(np.abs(freq - want) < 4.5 * se)


@pytest.mark.parametrize("m, k", [(1, 1), (1, 40)] + [
    (m, k) for m in (2, 3, 40) for k in (1, 2, 3, 5, 6, 19, 40)])
def test_level_groups_partition_the_levels_within_the_cell_budget(m, k):
    groups = _level_groups(m, k)
    assert [r for group in groups for r in range(k)[group]] == list(range(k))
    sizes = [group.stop - group.start for group in groups]
    assert all(size > 0 for size in sizes)
    assert all(m ** (2 * size) <= 1024 or size == 1 for size in sizes)
    # Only the last group may be smaller than the first.
    assert all(size == sizes[0] for size in sizes[:-1]) and sizes[-1] <= sizes[0]


def test_level_groups_of_the_benchmark_shape():
    def sizes(m, k):
        return [group.stop - group.start for group in _level_groups(m, k)]

    assert sizes(2, 19) == [5, 5, 5, 4]
    assert sizes(3, 7) == [3, 3, 1]
    assert sizes(1, 40) == [40]
    assert sizes(40, 2) == [1, 1]


def test_fast_single_category_over_many_levels_returns():
    g = mfng.fast_sample(2, mfng.make_measure([1.0], [[1.0]], k=40), np.random.default_rng(0))
    assert g.edge_count == 1


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


def test_fast_stops_at_the_drawn_target(block_measure):
    # The target is the first draw of the generator: a normal around the
    # closed-form edge mean, truncated to an int.
    n = 2000
    moments = mfng.edge_moments(make_noise_schedule(block_measure, 0.0), n)
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


def test_fast_does_not_stall_while_it_still_places_edges(block_measure, monkeypatch):
    # At k = 24, far past log_2 n, most boxes are empty.  In these draws
    # runs of 72 to 102 empty boxes fall inside rounds that still place
    # edges, while the longest run at the end of the boxes counted so far
    # is 49: only those may reach the stall limit.
    monkeypatch.setattr(sampler, "_MAX_CONSECUTIVE_REJECTS", 60)
    n, meas = 20_000, mfng.make_measure(block_measure.lengths, block_measure.probs, k=24)
    moments = mfng.edge_moments(make_noise_schedule(meas, 0.0), n)
    for seed in range(6):
        target = int(max(np.random.default_rng(seed).normal(moments.mean, moments.std), 0.0))
        g = mfng.fast_sample(n, meas, np.random.default_rng(seed))
        assert g.edge_count == target > 0


def test_fast_samplers_refuse_expected_edges_beyond_the_box_budget(block_measure, monkeypatch):
    # About 490 expected edges, so about as many boxes, against a budget of
    # 100: the run is refused before any box is drawn.
    def no_box_draws(*args, **kwargs):
        raise AssertionError("a box was drawn")

    monkeypatch.setattr(sampler, "_MAX_EXPECTED_BOXES", 100)
    monkeypatch.setattr(QTable, "sample_pairs", no_box_draws)
    with pytest.raises(TooLargeError, match="box draws"):
        mfng.fast_sample(300, block_measure, np.random.default_rng(0))
    with pytest.raises(TooLargeError, match="box draws"):
        mfng.noisy_sample(300, block_measure, 0.05, np.random.default_rng(0))


_SAMPLERS = {
    "naive": mfng.naive_sample,
    "fast": mfng.fast_sample,
    "noisy": lambda n, meas, rng: mfng.noisy_sample(n, meas, 0.05, rng),
    "intersection": lambda n, meas, rng: mfng.naive_sample(
        n, make_noise_schedule(meas, 0.05, rng), rng),
}


# The seed -> graph mapping, recorded as (edge count, sha256 of the edge
# array's bytes).  A change to the sampler's draws changes these on purpose.
@pytest.mark.parametrize("spec, n, sampler_name, edges, digest", [
    (_BLOCK_K10, 2000, "fast", 21946,
     "dcd4c5db0ffd4a697965e485954023311eadcd35eeaa3708f5fe3cac471e9ccb"),
    (_BLOCK_K10, 2000, "noisy", 21306,
     "37c3f87d018e8da02d3f1166736958f4ef90ad1d9004131972f08cbd8ea2e60c"),
    (_THREE_CAT, 2000, "fast", 206221,
     "4cd9de407ca9ca1c12bde8b256aab52a2b5cfdde982e11e51f32dbb954b6e1fd"),
    (_DENSE_CORE, 400, "fast", 1896,
     "0429fa4ccdaee2746994aa3b01914272b27b03f2f59d1e0c63f4a8c359566c64"),
    (_BLOCK_K10, 2000, "naive", 21854,
     "a7a4f89ea0afcd2136bbf49dfd1509ace801ee1879a15d1c3486b301c657ffc8"),
    (_SKEWED_K7, 2000, "intersection", 506,
     "3da83d432c02a8f1ba0d58da052b8ffad09ad15d36b46f0d1a2f793a62403c8e"),
], ids=["fast-accuracy-1", "noisy-b-0.05", "fast-m-3", "fast-dense-core",
        "naive", "exact-noisy-b-0.05"])
def test_seed_to_graph_mapping_is_pinned(spec, n, sampler_name, edges, digest):
    g = _SAMPLERS[sampler_name](n, mfng.make_measure(*spec[:2], k=spec[2]),
                                np.random.default_rng(7))
    assert (g.edge_count, hashlib.sha256(g.edge_array().tobytes()).hexdigest()) == (edges, digest)


@pytest.mark.parametrize("spec", [_BLOCK_K10, _DENSE_CORE], ids=["block", "dense-core"])
@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("sample", _SAMPLERS.values(), ids=_SAMPLERS)
def test_samplers_hand_graph_its_sorted_keys(sample, n, spec):
    # Every sampler builds a graph's form, strictly increasing int64 keys
    # u * n + v with u < v < n, which Graph(n, keys) takes as it is.
    g = sample(n, mfng.make_measure(*spec[:2], k=spec[2]), np.random.default_rng(5))
    keys, edges = g._keys, g.edge_array()
    assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)
    assert np.all((0 <= edges[:, 0]) & (edges[:, 0] < edges[:, 1]) & (edges[:, 1] < n))
    assert g == Graph.from_pairs(n, edges)
    assert np.array_equal(g.degrees(), np.bincount(edges.ravel(), minlength=n))


@pytest.mark.parametrize("spec", [_BLOCK_K10, _DENSE_CORE, _SKEWED_K7],
                         ids=["block", "dense-core", "skewed"])
def test_zero_noise_schedule_has_the_measure_moments(spec):
    # The schedule's k equal levels, each taken once, sum k equal logs where
    # the measure takes one log k times: equal up to rounding.
    meas = mfng.make_measure(*spec[:2], k=spec[2])
    schedule = make_noise_schedule(meas, 0.0)
    for n in (40, 1500, 100_000):
        got = mfng.expected_feature_vector(schedule, n)
        want = mfng.expected_feature_vector(meas, n)
        assert got.keys() == want.keys() == mfng.DEFAULT_FEATURES
        for key in want.keys():
            assert math.isclose(got.value(key), want.value(key), rel_tol=1e-12), key
        assert math.isclose(mfng.edge_moments(schedule, n).std,
                            mfng.edge_moments(meas, n).std, rel_tol=1e-12)


def test_exact_noisy_draws_follow_their_schedule():
    # naive_sample over a noise schedule around a p = 1 core: the
    # mean edges, S2 and C3 of 100 draws at n = 3000 lie within 4 se of the
    # schedule's closed forms, which differ from the measure's (C3 by about
    # 15% here).
    meas = mfng.make_measure(*_SKEWED_K7[:2], k=_SKEWED_K7[2])
    schedule = make_noise_schedule(meas, 0.05, np.random.default_rng(7))
    n, draws, keys = 3000, 100, ("edges", "S2", "C3")
    counts = np.array([
        [mfng.feature_vector(g, keys).value(key) for key in keys]
        for g in (mfng.naive_sample(n, schedule, spawned(71, i)) for i in range(draws))])
    want = mfng.expected_feature_vector(schedule, n, keys)
    z = (counts.mean(axis=0) - [want.value(key) for key in keys]) / (
        counts.std(axis=0, ddof=1) / math.sqrt(draws))
    assert np.all(np.abs(z) < 4.0), dict(zip(keys, z))
    assert not math.isclose(want.value("C3"), mfng.expected_t_cliques(meas, n, 3),
                            rel_tol=0.05)


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
        if np.all((want >= 0.0) & (want <= 1.0)):
            # Unclamped, the level keeps the total of the four entries.
            assert math.isclose(mat.sum(), p.sum(), rel_tol=1e-12)
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
    # at amplitude 0 nothing is rebalanced, so the schedule is the measure
    sched = make_noise_schedule(degenerate, 0.0)
    assert len(sched.level_matrices) == degenerate.k
    assert all(np.array_equal(p, degenerate.probs) for p in sched.level_matrices)


# ---------------------------------------------------------------------------
# noisy sampler
# ---------------------------------------------------------------------------

def test_noisy_zero_amplitude_reproduces_fast(block_measure):
    # A measure, the schedule of k copies of its matrix and the noise
    # schedule at b = 0 give the fast sampler one graph.
    n = 1200
    a = mfng.noisy_sample(n, block_measure, 0.0, rng=np.random.default_rng(19))
    b = mfng.fast_sample(n, block_measure, rng=np.random.default_rng(19))
    assert a == b == mfng.fast_sample(n, k_copies(block_measure), np.random.default_rng(19))


def test_noisy_is_fast_over_its_own_schedule(block_measure):
    # The schedule is drawn first from the generator, then the graph.
    n = 1200
    for seed in (19, 20):
        rng = np.random.default_rng(seed)
        want = mfng.fast_sample(n, make_noise_schedule(block_measure, 0.05, rng), rng)
        assert mfng.noisy_sample(n, block_measure, 0.05, np.random.default_rng(seed)) == want


def test_fast_target_reads_the_edge_moments_of_the_level_matrices(block_measure, monkeypatch):
    # A measure's target comes from the schedule of its k copies, not from
    # the measure at depth k, and a noisy draw's from its own schedule.
    # The two differ only in the last bits, which no graph shows.
    seen = []
    edge_moments = sampler._edge_moments

    def spy(model, n):
        seen.append(model)
        return edge_moments(model, n)

    monkeypatch.setattr(sampler, "_edge_moments", spy)
    mfng.fast_sample(300, block_measure, rng=np.random.default_rng(3))
    schedule = make_noise_schedule(block_measure, 0.05, np.random.default_rng(4))
    mfng.noisy_sample(300, block_measure, 0.05, rng=np.random.default_rng(4))
    assert len(seen) == 2
    for model, want in zip(seen, (k_copies(block_measure), schedule)):
        assert isinstance(model, NoiseSchedule)
        assert len(model.level_matrices) == len(want.level_matrices)
        for got, level in zip(model.level_matrices, want.level_matrices):
            np.testing.assert_array_equal(got, level)
        np.testing.assert_array_equal(model.lengths, want.lengths)


def test_noisy_zero_amplitude_reproduces_intersection(block_measure_k4):
    n = 100
    schedule = make_noise_schedule(block_measure_k4, 0.0, np.random.default_rng(19))
    a = mfng.naive_sample(n, schedule, np.random.default_rng(19))
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
    g = mfng.naive_sample(80, schedule, rng)
    assert g.n == 80
