"""Graph container, subgraph counters, and degree statistics."""

import math
import tracemalloc

import numpy as np
import pytest

import mfng
from mfng import DomainError, GraphTooLargeError, ZeroWedgesError
import mfng.features
from mfng.features import Graph
from mfng.oracle import BRUTE_FORCE_NODE_LIMIT, brute_force_counts


def complete_graph(n):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return Graph.from_pairs(n, np.array(pairs))


def random_gnp(n, p, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if mask[a, b]]
    return Graph.from_pairs(n, np.array(pairs).reshape(-1, 2))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_from_edge_list_dedups_and_relabels():
    g = mfng.from_edge_list([(10, 20), (20, 10), (30, 30), (10, 30)])
    assert g.n == 3
    assert g.edge_count == 2  # the self-loop is dropped, the duplicate merged
    assert sorted(g.degrees().tolist()) == [1, 1, 2]


def test_from_edge_list_empty():
    g = mfng.from_edge_list([])
    assert g.n == 0 and g.edge_count == 0
    for g in (g, Graph.empty(0), Graph.from_pairs(0, []), Graph.empty(3),
              Graph.from_pairs(3, [(1, 1)])):
        assert g.edge_count == 0
        assert g.edge_array().shape == (0, 2)
        assert g.degrees().tolist() == [0] * g.n
        assert all(g.neighbors(v).shape == (0,) for v in range(g.n))
        assert g == Graph.empty(g.n)


def unique_relabel(pairs):
    """The sorting relabel: each id's rank among the distinct ids."""
    ids, inverse = np.unique(pairs, return_inverse=True)
    return Graph.from_pairs(ids.size, inverse.reshape(-1, 2))


I64 = np.iinfo(np.int64)

# pairs -> whether their id span is at most the 2E id entries (the bitmap
# relabel) or beyond it (np.unique)
RELABEL_CASES = {
    "negative ids": ([(-5, -3), (-3, 0), (-1, -5)], True),
    "int64 extremes": ([(I64.min, I64.max), (I64.max, 0)], False),
    "span equal to 2E": ([(0, 3), (1, 3)], True),
    "span just above 2E": ([(0, 4), (1, 4)], False),
    "ids only in self-loops": ([(7, 7), (3, 5), (2, 2)], True),
    "duplicate edges": ([(1, 2), (2, 1), (1, 2), (2, 3)], True),
}


@pytest.mark.parametrize("pairs, bitmap", RELABEL_CASES.values(), ids=RELABEL_CASES.keys())
def test_bitmap_relabel_equals_the_sorting_relabel(monkeypatch, pairs, bitmap):
    want = unique_relabel(np.array(pairs, dtype=np.int64))
    span = max(max(p) for p in pairs) - min(min(p) for p in pairs) + 1
    assert (span <= 2 * len(pairs)) == bitmap
    calls = []
    unique = np.unique

    def counted_unique(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    assert mfng.from_edge_list(np.array(pairs, dtype=np.int64)) == want
    assert mfng.from_edge_list(pairs) == want
    assert len(calls) == (0 if bitmap else 2)


def test_from_edge_list_rejects_float_ids():
    with pytest.raises(DomainError):
        mfng.from_edge_list([(0.5, 1.7), (2.2, 3.9)])


def test_from_pairs_rejects_float_ids():
    with pytest.raises(DomainError):
        Graph.from_pairs(3, [(0.9, 2.1)])


def test_unsigned_ids_beyond_int64_are_rejected_not_wrapped():
    big = np.array([[0, 2 ** 63], [1, 2]], dtype=np.uint64)
    for build in (mfng.from_edge_list, lambda p: Graph.from_pairs(4, p)):
        with pytest.raises(DomainError):
            build(big)
    small = np.array([[0, 2], [1, 2]], dtype=np.uint64)
    assert mfng.from_edge_list(small) == mfng.from_edge_list([(0, 2), (1, 2)])


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, -2 ** 63 - 1])
def test_python_ints_beyond_int64_are_rejected(big):
    with pytest.raises(DomainError):
        mfng.from_edge_list([(0, 1), (1, big)])


@pytest.mark.parametrize("rows", [[(0, 1, 2)], [(0, 1, 2), (3, 4, 5)], [(0, 1), (2,)], [0, 1]])
def test_rows_that_are_not_pairs_are_rejected(rows):
    for build in (mfng.from_edge_list, lambda p: Graph.from_pairs(6, p)):
        with pytest.raises(DomainError):
            build(rows)


def test_int64_pairs_are_taken_without_a_copy():
    pairs = np.array([[0, 1], [1, 2]], dtype=np.int64)
    assert mfng.features._id_pairs(pairs) is pairs


@pytest.mark.parametrize("n, keys", [
    (3, np.array([1, 1, 2])),  # a repeat: once a multi-edge with S2 = 4
    (3, np.array([7, 1])),  # out of order: once an edge with u > v
    (3, np.array([2, 1])),
    (3, np.array([3])),  # 3 = 1 * 3 + 0 is the pair (1, 0)
    (3, np.array([4])),  # a self-loop (1, 1)
    (2, np.array([5])),  # beyond n * n: once numpy's untyped ValueError
    (3, np.array([-1, 2])),
    (3, np.array([1.0, 2.0])),  # float keys: once a TypeError
    (3, np.array([[1, 2]])),
    (3, np.array([True])),
    (3, [2 ** 70]),
    (-1, np.empty(0, dtype=np.int64)),
])
def test_graph_rejects_keys_that_are_not_its_form(n, keys):
    with pytest.raises(DomainError):
        Graph(n, keys)


def test_graph_takes_its_form_as_it_is():
    keys = np.array([1, 2, 5], dtype=np.int64)
    g = Graph(3, keys)
    assert g.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]
    assert g.degrees().tolist() == [2, 2, 2]
    assert Graph(3, [1, 2, 5]) == g
    assert Graph(3, np.array([1, 2, 5], dtype=np.uint8)) == g
    assert Graph(3, []) == Graph.empty(3) and Graph(0, []) == Graph.empty(0)


def test_from_pairs_keeps_isolated_nodes():
    g = Graph.from_pairs(5, np.array([[0, 1]]))
    assert g.n == 5
    assert g.degrees().tolist() == [1, 1, 0, 0, 0]


def test_edge_array_round_trip():
    g = random_gnp(12, 0.4, seed=3)
    edges = g.edge_array()
    assert edges.shape == (g.edge_count, 2)
    assert (edges[:, 0] < edges[:, 1]).all()
    keys = edges[:, 0] * 12 + edges[:, 1]
    assert (np.diff(keys) > 0).all()  # strictly increasing: sorted, no repeats
    assert Graph.from_pairs(12, edges) == g
    # Row order, orientation, repeats and self-loops do not change the graph.
    rng = np.random.default_rng(5)
    loops = np.column_stack([np.arange(12), np.arange(12)])
    messy = np.concatenate([edges, edges[:, ::-1], edges[::3], loops])
    assert Graph.from_pairs(12, rng.permutation(messy)) == g
    assert Graph.from_pairs(12, edges[::-1, ::-1]) == g


def test_neighbors():
    g = mfng.from_edge_list([(0, 1), (1, 2)])
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(2).tolist() == [1]
    # A G(n, p) graph in which node 16 is isolated and some node has
    # neighbors both below and above it.
    mask = np.triu(np.random.default_rng(4).random((17, 17)) < 0.3, 1)
    mask[:, 16] = False
    adjacency = mask | mask.T
    g = Graph.from_pairs(17, np.argwhere(mask))
    assert not adjacency[16].any()
    assert any(adjacency[v, :v].any() and adjacency[v, v + 1:].any() for v in range(17))
    for v in range(17):
        assert g.neighbors(v).tolist() == np.flatnonzero(adjacency[v]).tolist()
    assert g.degrees().tolist() == adjacency.sum(axis=1).tolist()


# ---------------------------------------------------------------------------
# counters on graphs with known answers
# ---------------------------------------------------------------------------

def test_counts_on_complete_graph_k4():
    g = complete_graph(4)
    vec = mfng.feature_vector(g)
    assert vec.value("edges") == 6
    assert vec.value("S2") == 12   # 4 centers, C(3,2) each
    assert vec.value("S3") == 4
    assert vec.value("C3") == 4
    assert vec.value("C4") == 1


def test_counts_on_star_graph():
    hub = [(0, i) for i in range(1, 8)]
    g = mfng.from_edge_list(hub)
    assert mfng.count_stars(g, 2) == math.comb(7, 2)
    assert mfng.count_stars(g, 7) == 1
    assert mfng.count_stars(g, 8) == 0
    assert mfng.count_triangles(g) == 0
    assert mfng.count_4cliques(g) == 0


def test_counts_on_path():
    g = mfng.from_edge_list([(0, 1), (1, 2), (2, 3)])
    assert mfng.count_stars(g, 2) == 2
    assert mfng.count_triangles(g) == 0


def test_triangle_free_bipartite():
    left, right = range(5), range(5, 10)
    g = mfng.from_edge_list([(a, b) for a in left for b in right])
    assert mfng.count_triangles(g) == 0
    assert mfng.count_4cliques(g) == 0
    assert mfng.count_stars(g, 2) == 10 * math.comb(5, 2)


def test_counts_match_brute_force_on_random_graphs():
    for seed in range(8):
        g = random_gnp(11, 0.35, seed=seed)
        fast = mfng.feature_vector(g)
        slow = brute_force_counts(g)
        assert fast.as_dict() == slow.as_dict(), seed


def test_dense_random_graph_against_brute_force():
    g = random_gnp(10, 0.8, seed=42)
    assert mfng.feature_vector(g).as_dict() == brute_force_counts(g).as_dict()


def dense_reference(adj):
    """Feature counts from a dense 0/1 adjacency matrix, shared with nothing.

    C3 is trace(A^3) / 6; C4 loops over triangles a < b < c and counts the
    d > c adjacent to all three.
    """
    a = adj.astype(np.int64)
    deg = a.sum(axis=1).tolist()
    c4 = 0
    n = a.shape[0]
    for x in range(n):
        for y in np.flatnonzero(a[x, x + 1:]) + x + 1:
            for z in np.flatnonzero(a[x, y + 1:] & a[y, y + 1:]) + y + 1:
                c4 += int(np.count_nonzero(a[x, z + 1:] & a[y, z + 1:] & a[z, z + 1:]))
    return {
        "edges": int(a.sum()) // 2,
        "S2": sum(math.comb(d, 2) for d in deg),
        "S3": sum(math.comb(d, 3) for d in deg),
        "S4": sum(math.comb(d, 4) for d in deg),
        "C3": int(np.trace(a @ a @ a)) // 6,
        "C4": c4,
    }


def hub_adjacency():
    """A hub joined to every node of a triangle and of an edge, and to one
    node of a K8: 14 nodes, C3 = 56 + 1 + 3 + 1 = 61, C4 = 70 + 1 = 71.

    The hub ranks above the cliques it joins and below the K8 node, so
    its forward list is short while many forward edges end at it."""
    adj = np.zeros((14, 14), dtype=bool)
    for clique in ([1, 2, 3], [4, 5], list(range(6, 14))):
        adj[np.ix_(clique, clique)] = True
    adj[0, 1:7] = adj[1:7, 0] = True
    np.fill_diagonal(adj, False)
    return adj


def chunk_test_graphs(chunk):
    """(adjacency, copies) pairs, each graph counted as that many disjoint
    copies: random graphs with a planted K8 and a hub, a K8 alone, the hub
    graph, and a small random graph copied until its edges fill at least
    three blocks of ``chunk`` forward edges."""
    rng = np.random.default_rng(2024)
    out = []
    for n, p in ((150, 0.12), (220, 0.06), (300, 0.03)):
        adj = np.triu(rng.random((n, n)) < p, 1)
        k8 = rng.choice(n, size=8, replace=False)
        adj[np.ix_(k8, k8)] = True
        hub = rng.integers(n)
        adj[hub, rng.choice(n, size=n // 2, replace=False)] = True
        adj = adj | adj.T
        np.fill_diagonal(adj, False)
        out.append((adj, 1))
    k8_alone = np.zeros((20, 20), dtype=bool)
    k8_alone[4:12, 4:12] = True
    np.fill_diagonal(k8_alone, False)
    out.append((k8_alone, 1))
    out.append((hub_adjacency(), 1))
    small = np.triu(np.random.default_rng(7).random((13, 13)) < 0.6, 1)
    out.append((small | small.T, 2 * chunk // int(small.sum()) + 1))
    return out


def disjoint_copies(adj, copies, rng):
    """The edge list of ``copies`` disjoint copies of adj, under ids drawn
    at random from ten times as many."""
    size = adj.shape[0] * copies
    ids = rng.permutation(10 * size)[:size]
    u, v = np.nonzero(np.triu(adj, 1))
    shift = np.repeat(np.arange(copies) * adj.shape[0], u.size)
    return np.column_stack([ids[np.tile(u, copies) + shift], ids[np.tile(v, copies) + shift]])


@pytest.mark.parametrize("chunk", [1, 3, mfng.features._WEDGE_CHUNK])
def test_counts_match_dense_reference_across_wedge_chunks(monkeypatch, chunk):
    monkeypatch.setattr(mfng.features, "_WEDGE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    pinned = {20: (56, 70), 14: (61, 71)}
    for adj, copies in chunk_test_graphs(chunk):
        one = dense_reference(adj)
        if adj.shape[0] in pinned:  # the K8 alone and the hub graph
            assert (one["C3"], one["C4"]) == pinned[adj.shape[0]]
        if adj.shape[0] <= BRUTE_FORCE_NODE_LIMIT:
            alone = Graph.from_pairs(adj.shape[0], np.argwhere(np.triu(adj, 1)))
            assert brute_force_counts(alone, ["C3", "C4"]).as_dict() == {
                "C3": one["C3"], "C4": one["C4"]}
        want = {key: copies * value for key, value in one.items()}
        g = mfng.from_edge_list(disjoint_copies(adj, copies, rng))
        assert mfng.count_triangles(g) == want["C3"]
        assert mfng.count_4cliques(g) == want["C4"]
        assert mfng.feature_vector(g).as_dict() == want


def test_triangle_phase_tests_the_rest_of_the_first_nodes_forward_list(monkeypatch):
    # Forward edge j = (u, v) sits at position j of F(u), and its triangle
    # candidates are the rest of F(u): indptr[u + 1] - j - 1 of them.
    # Extending from the last node instead would test all of F(v), more.
    queried = []
    has_edge = mfng.features._Forward.has_edge

    def spy(self, u, v):
        queried.append(u.size)
        return has_edge(self, u, v)

    monkeypatch.setattr(mfng.features._Forward, "has_edge", spy)
    for adj in (hub_adjacency(), chunk_test_graphs(1)[0][0]):
        g = mfng.from_edge_list(np.argwhere(np.triu(adj, 1)))
        fwd = mfng.features._Forward.of(g)
        rest = int(np.sum(fwd.indptr[fwd.sources + 1] - np.arange(g.edge_count) - 1))
        last = int(np.sum(fwd.indptr[fwd.targets + 1] - fwd.indptr[fwd.targets]))
        queried.clear()
        assert mfng.count_triangles(g) == dense_reference(adj)["C3"]
        assert sum(queried) == rest
        assert rest < last


def test_clique_pass_needs_no_memory_beyond_the_forward_lists(monkeypatch):
    # Besides the forward lists, the pass keeps one whole-edge array, the
    # target order, and reads the clique columns a block at a time; that
    # fits under the peak of building the lists.  The allowance covers the
    # pass's Python objects, and is far below a byte per edge.
    monkeypatch.setattr(mfng.features, "_WEDGE_CHUNK", 1 << 10)
    rng = np.random.default_rng(5)
    g = Graph.from_pairs(20_000, rng.integers(0, 20_000, size=(120_000, 2)))
    assert g.edge_count >= 100_000

    def peak(count):
        tracemalloc.start()
        try:
            count()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    forward = peak(lambda: mfng.features._Forward.of(g))
    assert peak(lambda: mfng.features._clique_counts(g, 4)) <= forward + 4096


def test_unsupported_clique_order_is_rejected_before_counting(monkeypatch):
    def fail(graph):
        raise AssertionError("counted before the feature list was checked")

    monkeypatch.setattr(mfng.features._Forward, "of", classmethod(fail))
    with pytest.raises(DomainError):
        mfng.feature_vector(complete_graph(5), ["C3", "C5"])


@pytest.mark.parametrize("features, builds", [
    (mfng.DEFAULT_FEATURES, 1), (("edges", "S2", "C2"), 0)])
def test_feature_vector_builds_forward_lists_at_most_once(monkeypatch, features, builds):
    calls = []
    build = mfng.features._Forward.of.__func__

    def counted(cls, graph):
        calls.append(graph)
        return build(cls, graph)

    monkeypatch.setattr(mfng.features._Forward, "of", classmethod(counted))
    g = complete_graph(6)
    assert mfng.feature_vector(g, features) == brute_force_counts(g, features)
    assert len(calls) == builds


def test_brute_force_node_cap():
    with pytest.raises(GraphTooLargeError):
        brute_force_counts(complete_graph(15))


def test_feature_vector_rejects_unknown_keys():
    g = complete_graph(4)
    with pytest.raises(DomainError):
        mfng.feature_vector(g, features=("edges", "Q3"))


def test_high_order_cliques_unsupported_by_counter():
    with pytest.raises(DomainError):
        mfng.feature_vector(complete_graph(6), features=("C5",))


# ---------------------------------------------------------------------------
# degree distribution and clustering
# ---------------------------------------------------------------------------

def test_degree_distribution_counts_and_ccdf():
    g = mfng.from_edge_list([(0, 1), (0, 2), (0, 3)])
    dist = mfng.degree_distribution(g)
    assert dist.node_count == 4
    assert dist.counts.tolist() == [0, 3, 0, 1]
    ccdf = dist.ccdf()
    assert ccdf[0] == 1.0
    assert math.isclose(ccdf[1], 1.0)     # no isolated nodes here
    assert math.isclose(ccdf[3], 0.25)
    assert np.all(np.diff(ccdf) <= 0)


def test_degree_distribution_of_the_empty_graph():
    dist = mfng.degree_distribution(Graph.empty(0))
    assert dist.counts.tolist() == [0]
    assert dist.ccdf().tolist() == [0.0]
    edgeless = mfng.degree_distribution(Graph.empty(3))
    assert edgeless.counts.tolist() == [3] and edgeless.ccdf().tolist() == [1.0]


def test_degree_distribution_counts_sum_to_n():
    g = random_gnp(30, 0.2, seed=9)
    dist = mfng.degree_distribution(g)
    assert int(dist.counts.sum()) == 30


def test_clustering_coefficient_extremes():
    assert mfng.clustering_coefficient(complete_graph(4)) == 1.0
    star = mfng.from_edge_list([(0, i) for i in range(1, 6)])
    assert mfng.clustering_coefficient(star) == 0.0


def test_clustering_coefficient_needs_a_wedge():
    g = mfng.from_edge_list([(0, 1)])
    with pytest.raises(ZeroWedgesError):
        mfng.clustering_coefficient(g)


def test_clustering_matches_definition_on_random_graph():
    g = random_gnp(14, 0.3, seed=21)
    cc = mfng.clustering_coefficient(g)
    want = 3.0 * mfng.count_triangles(g) / mfng.count_stars(g, 2)
    assert math.isclose(cc, want, rel_tol=1e-15)
