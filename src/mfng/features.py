"""Undirected graph container and exact subgraph counting.

Counts are exact Python integers throughout: star counts on heavy-tailed
graphs overflow 64-bit arithmetic long before the graphs get interesting.

Triangles and 4-cliques use the array form of the forward algorithm (Latapy
2008).  Every edge is oriented from the endpoint of lower (degree, id) rank
to the higher one, so each node keeps at most O(sqrt(E)) forward neighbors
and each triangle u < v < w (in rank) arises from exactly one wedge:
forward edge (u, v) followed by w in F(v), kept when (u, w) is an edge.
Wedges are expanded and tested as whole arrays, a bounded number at a time,
with edge membership answered by binary search over the sorted forward-edge
keys ``u * n + w``.  A 4-clique u < v < w < x extends its triangle
(u, v, w) by x in F(w) with both (u, x) and (v, x) present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ZeroWedgesError
from .measure import DEFAULT_FEATURES, FeatureVector, parse_feature


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
        # One sort of the keys u * n + v over both orientations puts every
        # row in order and every neighbor list ascending; dropping repeats
        # collapses duplicate edges.
        n64 = np.int64(n)
        keys = np.sort(np.concatenate([lo * n64 + hi, hi * n64 + lo]))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        indptr, rows = _csr_rows(keys, n)
        return cls(n, indptr, keys - rows * n64)

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


def _csr_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointer and row ids of sorted keys ``u * n + v`` on n rows."""
    rows = keys // np.int64(n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, rows


def from_edge_list(pairs: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph from raw id pairs as they come out of an edge-list file.

    Node ids are remapped to a dense [0, n) range in sorted order of the
    original ids; every id that appears anywhere (including only in
    self-loops) counts as a node.  Self-loops and duplicate edges are then
    discarded.  An empty input gives the empty graph.
    """
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if arr.size == 0:
        return Graph.empty(0)
    ids, inverse = np.unique(arr, return_inverse=True)
    # The inverse's shape for a 2-D input differs across numpy versions.
    return Graph.from_pairs(int(ids.size), inverse.reshape(-1, 2))


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


# Most wedges expanded and tested at once by the triangle and 4-clique
# counters; bounds their working memory whatever the triangle count.
_WEDGE_CHUNK = 1 << 16


@dataclass(frozen=True)
class _Forward:
    """Edges oriented by (degree, id) rank, in rank space.

    ``keys`` holds ``u * n + v`` for every forward edge u < v, sorted;
    ``sources`` and ``targets`` are its u and v, so
    ``targets[indptr[u]:indptr[u + 1]]`` are the forward neighbors F(u).
    """

    n: int
    indptr: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    keys: np.ndarray

    @classmethod
    def of(cls, graph: Graph) -> "_Forward":
        n = np.int64(graph.n)
        deg = graph.degrees()
        rank = np.empty(graph.n, dtype=np.int64)
        rank[np.argsort(deg, kind="stable")] = np.arange(graph.n)
        src = np.repeat(rank, deg)
        dst = rank[graph._indices]
        fwd = src < dst
        keys = np.sort(src[fwd] * n + dst[fwd])
        indptr, rows = _csr_rows(keys, graph.n)
        return cls(graph.n, indptr, rows, keys - rows * n, keys)

    def has_edge(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise: is (u, v), with u below v in rank, a forward edge?

        Every u must rank below some source of a forward edge, as the first
        two nodes of a wedge do, so that the smallest query does not exceed
        the last key.
        """
        query = u * np.int64(self.n) + v
        # Search only the keys between the smallest and the largest query:
        # a chunk of wedges spans few rows, and that slice stays in cache.
        lo, hi = np.searchsorted(self.keys, [query.min(), query.max()])
        keys = self.keys[lo:hi + 1]
        return keys.take(np.searchsorted(keys, query), mode="clip") == query

    def expand(self, heads: np.ndarray):
        """Yield (i, x) array pairs covering every x in F(heads[i]).

        Each chunk holds at most ``_WEDGE_CHUNK`` pairs, or the pairs of a
        single head whose forward list is longer than that.
        """
        counts = self.indptr[heads + 1] - self.indptr[heads]
        ends = np.cumsum(counts)
        start = 0
        while start < heads.size:
            base = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, base + _WEDGE_CHUNK, side="right")),
                       start + 1)
            size = int(ends[stop - 1] - base)
            if size:
                group = counts[start:stop]
                # Pair j of the chunk reads F(heads[i]) at its offset j minus
                # the offset where that head's run begins.
                first = self.indptr[heads[start:stop]] - (ends[start:stop] - group - base)
                i = np.repeat(np.arange(start, stop), group)
                yield i, self.targets[np.repeat(first, group) + np.arange(size)]
            start = stop


def _triangles(fwd: _Forward):
    """Yield every triangle u < v < w (in rank) once, as chunks of arrays."""
    for i, w in fwd.expand(fwd.targets):
        u = fwd.sources[i]
        hit = fwd.has_edge(u, w)
        yield u[hit], fwd.targets[i[hit]], w[hit]


def count_triangles(graph: Graph) -> int:
    """Exact triangle count via the forward wedge enumeration."""
    return sum(int(w.size) for _, _, w in _triangles(_Forward.of(graph)))


def count_4cliques(graph: Graph) -> int:
    """Exact 4-clique count: extend each triangle (u, v, w) by every x in
    F(w) adjacent to both u and v."""
    fwd = _Forward.of(graph)
    total = 0
    for u, v, w in _triangles(fwd):
        for i, x in fwd.expand(w):
            total += int(np.count_nonzero(fwd.has_edge(u[i], x) & fwd.has_edge(v[i], x)))
    return total


def _counter(key: str):
    """The exact counter of one feature key, as a function of the graph.

    The counters are looked up by their module names when a lambda runs, so
    a counter rebound on this module (by a tracer or a test) is the one used.
    """
    kind, order = parse_feature(key)
    if kind == "edges" or (kind == "clique" and order == 2):
        return lambda graph: graph.edge_count
    if kind == "star":
        return lambda graph: count_stars(graph, order)
    if order == 3:
        return lambda graph: count_triangles(graph)
    if order == 4:
        return lambda graph: count_4cliques(graph)
    raise DomainError(f"clique counting supports C2..C4, got C{order}")


def feature_vector(
    graph: Graph, features: Sequence[str] = DEFAULT_FEATURES
) -> FeatureVector:
    """Count the requested features; all values are exact integers.

    Every key is checked before anything is counted.
    """
    counters = {key: _counter(key) for key in features}
    return FeatureVector({key: count(graph) for key, count in counters.items()})


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
