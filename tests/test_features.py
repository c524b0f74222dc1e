"""Graph container, subgraph counters, and degree statistics."""

import math

import numpy as np
import pytest

import mfng
from mfng import DomainError, GraphTooLargeError, ZeroWedgesError
import mfng.features
from mfng.features import Graph
from mfng.oracle import brute_force_counts


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


def test_from_pairs_keeps_isolated_nodes():
    g = Graph.from_pairs(5, np.array([[0, 1]]))
    assert g.n == 5
    assert g.degrees().tolist() == [1, 1, 0, 0, 0]


def test_edge_array_round_trip():
    g = random_gnp(12, 0.4, seed=3)
    again = Graph.from_pairs(12, g.edge_array())
    assert again == g


def test_neighbors():
    g = mfng.from_edge_list([(0, 1), (1, 2)])
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(2).tolist() == [1]


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


def chunk_test_graphs():
    """Random graphs with a planted K8 and a hub, ids shuffled."""
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
        out.append(adj)
    k8_alone = np.zeros((20, 20), dtype=bool)
    k8_alone[4:12, 4:12] = True
    np.fill_diagonal(k8_alone, False)
    out.append(k8_alone)
    return out


@pytest.mark.parametrize("chunk", [1, 3, mfng.features._WEDGE_CHUNK])
def test_counts_match_dense_reference_across_wedge_chunks(monkeypatch, chunk):
    monkeypatch.setattr(mfng.features, "_WEDGE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for adj in chunk_test_graphs():
        want = dense_reference(adj)
        if adj.shape[0] == 20:
            assert (want["C3"], want["C4"]) == (56, 70)
        ids = rng.permutation(10 * adj.shape[0])[:adj.shape[0]]
        u, v = np.nonzero(np.triu(adj, 1))
        g = mfng.from_edge_list(np.column_stack([ids[u], ids[v]]))
        assert mfng.count_triangles(g) == want["C3"]
        assert mfng.count_4cliques(g) == want["C4"]
        assert mfng.feature_vector(g).as_dict() == want


def test_unsupported_clique_order_is_rejected_before_counting(monkeypatch):
    def fail(graph):
        raise AssertionError("counted before the feature list was checked")

    monkeypatch.setattr(mfng.features, "count_triangles", fail)
    with pytest.raises(DomainError):
        mfng.feature_vector(complete_graph(5), ["C3", "C5"])


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
