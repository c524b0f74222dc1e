"""Undirected graph container and exact subgraph counting.

Counts are exact Python integers throughout: star counts on heavy-tailed
graphs overflow 64-bit arithmetic long before the graphs get interesting.
Triangles and 4-cliques use the standard degree-ordered forward-adjacency
sweep, which touches every triangle exactly once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, GraphTooLargeError, ZeroWedgesError
from .measure import DEFAULT_FEATURES, FeatureVector, parse_feature

# Exhaustive reference counting enumerates subsets; keep it to toy graphs.
BRUTE_FORCE_NODE_LIMIT = 14


class Graph:
    """Simple undirected graph on dense node ids [0, n).

    Stored in compressed sparse rows (both directions of every edge), with
    each neighbor list sorted ascending.  No self-loops, no multi-edges.
    """

    __slots__ = ("_n", "_indptr", "_indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self._n = int(n)
        self._indptr = indptr
        self._indices = indices

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, n: int = 0) -> "Graph":
        return cls(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Graph":
        """Build a graph on exactly n nodes from (u, v) rows.

        Self-loops are dropped and duplicates (in either orientation) are
        collapsed.  Node ids must already lie in [0, n); isolated nodes are
        preserved.
        """
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            return cls.empty(n)
        arr = arr.reshape(-1, 2)
        if arr.min() < 0 or arr.max() >= n:
            raise DomainError("edge endpoints must lie in [0, n)")
        arr = arr[arr[:, 0] != arr[:, 1]]
        if arr.shape[0] == 0:
            return cls.empty(n)
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        keys = np.unique(lo * np.int64(n) + hi)
        lo, hi = keys // n, keys % n
        both_u = np.concatenate([lo, hi])
        both_v = np.concatenate([hi, lo])
        order = np.lexsort((both_v, both_u))
        indices = both_v[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(both_u, minlength=n), out=indptr[1:])
        return cls(n, indptr, indices)

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self._indices.size // 2)

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a read-only view)."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """All edges as an (E, 2) array with u < v, sorted lexicographically."""
        src = np.repeat(np.arange(self._n, dtype=np.int64), np.diff(self._indptr))
        fwd = src < self._indices
        return np.column_stack([src[fwd], self._indices[fwd]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._n == other._n
                and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __hash__(self):
        return hash((self._n, self._indices.size))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={self.edge_count})"


def from_edge_list(pairs: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph from raw id pairs as they come out of an edge-list file.

    Node ids are remapped to a dense [0, n) range in sorted order of the
    original ids; every id that appears anywhere (including only in
    self-loops) counts as a node.  Self-loops and duplicate edges are then
    discarded.  An empty input gives the empty graph.
    """
    if isinstance(pairs, np.ndarray):
        arr = pairs.astype(np.int64, copy=False).reshape(-1, 2)
    else:
        flat = [int(x) for uv in pairs for x in uv]
        arr = np.asarray(flat, dtype=np.int64).reshape(-1, 2)
    if arr.size == 0:
        return Graph.empty(0)
    ids = np.unique(arr)
    remapped = np.searchsorted(ids, arr)
    return Graph.from_pairs(int(ids.size), remapped)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_stars(graph: Graph, d: int) -> int:
    """Number of d-stars: sum over nodes of C(degree, d), exactly."""
    if d < 1:
        raise DomainError(f"star order d must be >= 1, got {d}")
    hist = np.bincount(graph.degrees(), minlength=1) if graph.n else np.zeros(1, int)
    return sum(int(cnt) * math.comb(deg, d)
               for deg, cnt in enumerate(hist.tolist()) if cnt and deg >= d)


def _forward_lists(graph: Graph) -> list[np.ndarray]:
    """Neighbors with strictly higher (degree, id) rank, per node.

    Orienting every edge toward the higher-ranked endpoint makes each
    triangle discoverable exactly once and keeps the forward lists short on
    skewed degree sequences.
    """
    deg = graph.degrees()
    order = np.lexsort((np.arange(graph.n), deg))
    rank = np.empty(graph.n, dtype=np.int64)
    rank[order] = np.arange(graph.n)
    out = []
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        out.append(nbrs[rank[nbrs] > rank[v]])
    return out


def count_triangles(graph: Graph) -> int:
    """Exact triangle count via the forward-adjacency sweep."""
    fwd = _forward_lists(graph)
    total = 0
    for u in range(graph.n):
        fu = fwd[u]
        if fu.size < 1:
            continue
        for v in fu.tolist():
            fv = fwd[v]
            if fv.size:
                total += int(np.intersect1d(fu, fv, assume_unique=True).size)
    return total


def count_4cliques(graph: Graph) -> int:
    """Exact 4-clique count: extend each forward triangle by the common
    forward neighbors of its two lowest-ranked vertices."""
    fwd = _forward_lists(graph)
    total = 0
    for u in range(graph.n):
        fu = fwd[u]
        if fu.size < 2:
            continue
        for v in fu.tolist():
            fv = fwd[v]
            if not fv.size:
                continue
            common = np.intersect1d(fu, fv, assume_unique=True)
            for w in common.tolist():
                fw = fwd[w]
                if fw.size:
                    total += int(np.intersect1d(common, fw, assume_unique=True).size)
    return total


def feature_vector(
    graph: Graph, features: Sequence[str] = DEFAULT_FEATURES
) -> FeatureVector:
    """Count the requested features; all values are exact integers."""
    edges = None
    stars: dict[int, int] = {}
    cliques: dict[int, int] = {}
    for key in features:
        kind, order = parse_feature(key)
        if kind == "edges":
            edges = graph.edge_count
        elif kind == "star":
            stars[order] = count_stars(graph, order)
        elif order == 2:
            cliques[2] = graph.edge_count
        elif order == 3:
            cliques[3] = count_triangles(graph)
        elif order == 4:
            cliques[4] = count_4cliques(graph)
        else:
            raise DomainError(f"clique counting supports C2..C4, got C{order}")
    return FeatureVector(edges=edges, stars=stars, cliques=cliques)


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree histogram of a graph.

    ``counts[d]`` is the number of nodes of degree d; the array always has
    at least one entry so the empty graph is representable.
    """

    node_count: int
    counts: np.ndarray

    def ccdf(self) -> np.ndarray:
        """ccdf[d] = fraction of nodes with degree >= d (ccdf[0] == 1)."""
        if self.node_count == 0:
            return np.zeros(0)
        tail = np.cumsum(self.counts[::-1])[::-1]
        return tail / float(self.node_count)


def degree_distribution(graph: Graph) -> DegreeDistribution:
    if graph.n == 0:
        return DegreeDistribution(0, np.zeros(1, dtype=np.int64))
    counts = np.bincount(graph.degrees(), minlength=1)
    return DegreeDistribution(graph.n, counts.astype(np.int64))


def clustering_coefficient(graph: Graph) -> float:
    """Global clustering: 3 * triangles / wedges."""
    wedges = count_stars(graph, 2)
    if wedges == 0:
        raise ZeroWedgesError("clustering coefficient undefined: the graph has no wedges")
    return 3.0 * count_triangles(graph) / float(wedges)


def brute_force_counts(
    graph: Graph, features: Sequence[str] = DEFAULT_FEATURES
) -> FeatureVector:
    """Count features by raw subset enumeration (independent reference).

    Deliberately shares nothing with the fast counters: stars check every
    (center, leaf-set) pair, cliques check all pairwise adjacencies in every
    t-subset.  Limited to tiny graphs.
    """
    n = graph.n
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise GraphTooLargeError(
            f"brute-force counting is capped at {BRUTE_FORCE_NODE_LIMIT} nodes, got {n}")
    adj = [[False] * n for _ in range(n)]
    for u, v in graph.edge_array().tolist():
        adj[u][v] = adj[v][u] = True

    def star_count(d: int) -> int:
        total = 0
        nodes = range(n)
        for center in nodes:
            others = [v for v in nodes if v != center]
            for leaves in itertools.combinations(others, d):
                if all(adj[center][leaf] for leaf in leaves):
                    total += 1
        return total

    def clique_count(t: int) -> int:
        total = 0
        for group in itertools.combinations(range(n), t):
            if all(adj[a][b] for a, b in itertools.combinations(group, 2)):
                total += 1
        return total

    edges = None
    stars: dict[int, int] = {}
    cliques: dict[int, int] = {}
    for key in features:
        kind, order = parse_feature(key)
        if kind == "edges":
            edges = sum(adj[u][v] for u in range(n) for v in range(u + 1, n))
        elif kind == "star":
            stars[order] = star_count(order)
        else:
            cliques[order] = clique_count(order)
    return FeatureVector(edges=edges, stars=stars, cliques=cliques)
