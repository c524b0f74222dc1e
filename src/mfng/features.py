"""Undirected graph container and exact subgraph counting.

A ``Graph`` stores each edge once, as the key ``u * n + v`` with u < v,
in one sorted array, together with its degree vector.  Counting needs
only those two; ``neighbors`` is a scan over the keys.

Counts are exact Python integers throughout: star counts on heavy-tailed
graphs overflow 64-bit arithmetic long before the graphs get interesting.

Triangles and 4-cliques come from one pass of the array form of the
compact-forward algorithm (Latapy 2008; Chiba & Nishizeki 1985).  Every
edge is oriented from the endpoint of lower (degree, id) rank to the higher
one, so each node keeps at most O(sqrt(E)) forward neighbors, sorted.  The
forward edges are the 2-cliques, and each clique c1 < ... < ct (in rank) is
extended from its first node's forward list, past its last node: by every x
in F(c1) after ct that is adjacent to all of c2 .. ct.  So each triangle
u < v < w arises once, from forward edge (u, v) and w in F(u) after v, and
each 4-clique once, from its triangle (u, v, w) and x in F(u) after w.
The forward edges are walked in target order, so that the membership
queries (v, w) of one chunk share few v.  Candidates are expanded and
tested as whole arrays, a bounded number at a time, with edge membership
answered by binary search over the sorted forward-edge keys ``u * n + w``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ZeroWedgesError
from .measure import DEFAULT_FEATURES, FeatureVector, _check_integer, parse_feature


class Graph:
    """Simple undirected graph on dense node ids [0, n).

    Stored as its edge keys ``u * n + v`` (u < v), one per edge, sorted and
    unique, plus the degree vector computed once at construction.  No
    self-loops, no multi-edges.  ``neighbors`` is a scan over the keys.

    The constructor ``Graph(n, keys)`` takes that form as it is: ``keys``
    must be a 1-D integer array of ``u * n + v``, strictly increasing, with
    0 <= u < v < n, and anything else raises ``DomainError``.  The samplers
    build that array directly; :meth:`from_pairs` makes it from (u, v) rows
    that come from outside.
    """

    __slots__ = ("_n", "_keys", "_degrees")

    def __init__(self, n: int, keys):
        n, arr = _check_integer("node count n", n, 0), np.asarray(keys)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise DomainError(
                f"edge keys must be a 1-D integer array, got {arr.dtype} of shape {arr.shape}")
        arr = arr.astype(np.int64, copy=False)
        if arr.size and (arr[0] < 0 or arr[-1] >= n * n):
            raise DomainError(f"edge keys must lie in [0, n * n) for n = {n}")
        if np.any(arr[1:] <= arr[:-1]):
            raise DomainError("edge keys must be strictly increasing")
        u, v = divmod(arr, np.int64(n))
        if np.any(u >= v):
            raise DomainError("edge keys must encode pairs u < v")
        self._n = n
        self._keys = arr
        self._degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        self._degrees.flags.writeable = False

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, n: int = 0) -> "Graph":
        return cls(n, np.empty(0, dtype=np.int64))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Graph":
        """Build a graph on exactly n nodes from (u, v) rows from outside the
        package, such as a user's pairs or an edge-list file's.

        Self-loops are dropped and duplicates (in either orientation) are
        collapsed.  Node ids must already lie in [0, n); isolated nodes are
        preserved.  An n that is not an integer >= 0, ids that are not
        integers, or rows that are not pairs, raise ``DomainError``.
        """
        n, arr = _check_integer("node count n", n, 0), _id_pairs(pairs)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise DomainError("edge endpoints must lie in [0, n)")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        # One sort of the keys u * n + v of the rows that are not self-loops
        # puts the edges in order; dropping repeats collapses duplicates.
        keys = np.sort((lo * np.int64(n) + hi)[lo != hi])
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        return cls(n, keys[fresh])

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self._keys.size)

    def degrees(self) -> np.ndarray:
        """Degree of every node (a read-only array)."""
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of node v, found by a scan over all E edge
        keys, O(E).  A v that is not an integer in [0, n) raises
        ``DomainError``."""
        v = _check_integer("node v", v, 0)
        if v >= self._n:
            raise DomainError(f"node v must be below n = {self._n}, got {v}")
        u, w = divmod(self._keys, np.int64(self._n))
        return np.concatenate([u[w == v], w[u == v]])

    def edge_array(self) -> np.ndarray:
        """All edges as an (E, 2) array with u < v, sorted lexicographically."""
        return np.column_stack(divmod(self._keys, np.int64(self._n)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._keys, other._keys)

    def __hash__(self):
        return hash((self._n, self._keys.size))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={self.edge_count})"


def _search_sorted(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Look each query up in the sorted array ``keys``.

    Returns ``(pos, hit)``: ``hit`` says whether the query is a key, and
    where it is, ``keys[pos]`` is that key.  Empty keys give no hits.
    """
    if keys.size == 0:
        return np.zeros(np.shape(query), dtype=np.int64), np.zeros(np.shape(query), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return pos, keys[pos] == query


_INT64_MAX = np.iinfo(np.int64).max


def _id_pairs(pairs) -> np.ndarray:
    """pairs as an (E, 2) int64 array, without a copy when they already
    are one.  Anything but rows of two integer ids within int64 raises
    ``DomainError``: floats, which a cast would truncate, and unsigned ids
    above the int64 range, which it would wrap.  Only an unsigned 64-bit
    array pays an extra pass for that check."""
    try:
        arr = np.asarray(pairs)
    except (ValueError, OverflowError) as exc:  # ragged rows, or ints numpy cannot hold
        raise DomainError(f"node ids must be (u, v) rows of integers ({exc})") from None
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"node ids must be (u, v) rows, got shape {arr.shape}")
    if arr.dtype.kind not in "iu" or (
            arr.dtype == np.uint64 and arr.max() > _INT64_MAX):
        raise DomainError(
            f"node ids must be integers within the int64 range, got {arr.dtype} ids")
    return arr.astype(np.int64, copy=False)


def from_edge_list(pairs: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph from raw id pairs as they come out of an edge-list file.

    Node ids are remapped to a dense [0, n) range in sorted order of the
    original ids; every id that appears anywhere (including only in
    self-loops) counts as a node.  Self-loops and duplicate edges are then
    discarded.  An empty input gives the empty graph.  Ids that are not
    integers within int64 (floats included), or rows that are not pairs,
    raise ``DomainError``.

    When the span of the ids (largest minus smallest, plus one) is at most
    the number of id entries, 2E, each id's new label is a running count
    over a presence bitmap of the span, with no sort.  The bitmap and the
    int64 counts take 9 bytes per id of the span, so the span rule keeps
    them within 18E bytes, next to the 16E bytes of the int64 input.
    Wider spans take ``np.unique``, which sorts.
    """
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    arr = _id_pairs(pairs)
    if arr.size == 0:
        return Graph.empty(0)
    lo, hi = int(arr.min()), int(arr.max())  # Python ints: hi - lo overflows int64
    if hi - lo < arr.size:
        offsets = arr - lo if lo else arr
        present = np.zeros(hi - lo + 1, dtype=bool)
        present[offsets] = True
        labels = np.cumsum(present, dtype=np.int64)
        labels -= 1  # each present id's rank among the present ids
        return Graph.from_pairs(int(labels[-1]) + 1, labels[offsets])
    ids, inverse = np.unique(arr, return_inverse=True)
    # The inverse's shape for a 2-D input differs across numpy versions.
    return Graph.from_pairs(int(ids.size), inverse.reshape(-1, 2))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def count_stars(graph: Graph, d: int) -> int:
    """Number of d-stars: sum over nodes of C(degree, d), exactly."""
    d = _check_integer("star order d", d, 1)
    hist = np.bincount(graph.degrees(), minlength=1)
    return sum(int(cnt) * math.comb(deg, d)
               for deg, cnt in enumerate(hist.tolist()) if cnt and deg >= d)


# Most candidates expanded and tested at once, and most forward edges read
# per block, by the clique counters; bounds their working memory whatever
# the triangle count.
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
        rank = np.empty(graph.n, dtype=np.int64)
        rank[np.argsort(graph.degrees(), kind="stable")] = np.arange(graph.n)
        u, v = (rank[ends] for ends in divmod(graph._keys, n))
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        rows = keys // n
        indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=graph.n), out=indptr[1:])
        return cls(graph.n, indptr, rows, keys - rows * n, keys)

    def has_edge(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise: is (u, v), with u below v in rank, a forward edge?"""
        query = u * np.int64(self.n) + v
        # Search only the keys between the smallest and the largest query:
        # a chunk of wedges spans few rows, and that slice stays in cache.
        lo, hi = np.searchsorted(self.keys, [query.min(), query.max()])
        return _search_sorted(self.keys[lo:hi + 1], query)[1]

    def expand(self, starts: np.ndarray, stops: np.ndarray):
        """Yield (i, pos) array pairs covering every position pos in
        [starts[i], stops[i]) of ``targets``.

        A clique c1 < ... < ct whose ct sits at position p of F(c1) passes
        the rest of that list, ``targets[p + 1 : indptr[c1 + 1]]``.  Each
        chunk holds at most ``_WEDGE_CHUNK`` pairs, or the pairs of a single
        range longer than that.
        """
        counts = stops - starts
        ends = np.cumsum(counts)
        start = 0
        while start < starts.size:
            base = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, base + _WEDGE_CHUNK, side="right")),
                       start + 1)
            size = int(ends[stop - 1] - base)
            if size:
                group = counts[start:stop]
                # Pair j of the chunk reads range i at its offset j minus the
                # offset where that range's run begins.
                first = starts[start:stop] - (ends[start:stop] - group - base)
                yield (np.repeat(np.arange(start, stop), group),
                       np.repeat(first, group) + np.arange(size))
            start = stop


def _clique_counts(graph: Graph, top: int) -> list[int]:
    """Exact t-clique counts, indexed by t, for t = 2..top, from one pass.

    The forward edges are the 2-cliques.  Each t-clique c1 < ... < ct (in
    rank) is extended by every x in F(c1) after ct that is adjacent to all
    of c2 .. ct, which finds every (t+1)-clique once, from its first t
    nodes.  The forward edges are walked in target order, a block of
    ``_WEDGE_CHUNK`` at a time, so that the queries (ct, x) of a chunk
    share few ct and search a short slice of the keys.  No forward lists
    are built when top is 2.
    """
    if top > 4:
        raise DomainError(f"clique counting supports C2..C4, got C{top}")
    counts = [0, 0, graph.edge_count] + [0] * (top - 2)
    if top == 2:
        return counts
    fwd = _Forward.of(graph)

    def extend(clique, last):
        # A chunk of t-cliques as t columns of ranks, c1 first; last[i] is
        # the position of clique i's ct in F(c1).
        t = len(clique)
        for i, pos in fwd.expand(last + 1, fwd.indptr[clique[0] + 1]):
            x = fwd.targets[pos]
            hit = np.logical_and.reduce([fwd.has_edge(c[i], x) for c in clique[1:]])
            counts[t + 1] += int(np.count_nonzero(hit))
            if t + 1 < top:
                extend(tuple(c[i[hit]] for c in clique) + (x[hit],), pos[hit])

    # Edge j sits at position j of F(sources[j]).  The keys v * n + u are
    # below n * n, which the graph's own keys already fit in int64.
    order = np.argsort(fwd.targets * np.int64(graph.n) + fwd.sources)
    for block in range(0, order.size, _WEDGE_CHUNK):
        j = order[block:block + _WEDGE_CHUNK]
        extend((fwd.sources[j], fwd.targets[j]), j)
    return counts


def count_triangles(graph: Graph) -> int:
    """Exact triangle count: each forward edge (u, v) extended by every w
    in F(u) after v that is adjacent to v."""
    return _clique_counts(graph, 3)[3]


def count_4cliques(graph: Graph) -> int:
    """Exact 4-clique count: each triangle (u, v, w) extended by every x
    in F(u) after w that is adjacent to both v and w."""
    return _clique_counts(graph, 4)[4]


def feature_vector(
    graph: Graph, features: Sequence[str] = DEFAULT_FEATURES
) -> FeatureVector:
    """Count the requested features; all values are exact integers.

    Every key is checked before anything is counted, and the cliques of
    every requested order come from one pass.
    """
    parsed = {key: parse_feature(key) for key in features}
    cliques = _clique_counts(
        graph, max([order for kind, order in parsed.values() if kind == "clique"], default=2))
    return FeatureVector({
        key: cliques[order] if kind == "clique"
        else count_stars(graph, order) if kind == "star" else graph.edge_count
        for key, (kind, order) in parsed.items()})


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree histogram of a graph.

    ``counts[d]`` is the number of nodes of degree d; the array always has
    at least one entry so the empty graph is representable.
    """

    node_count: int
    counts: np.ndarray

    def ccdf(self) -> np.ndarray:
        """ccdf[d] = fraction of nodes with degree >= d, one value per entry
        of ``counts``: ccdf[0] == 1, and the empty graph's one value is 0."""
        if self.node_count == 0:
            return np.zeros(self.counts.size)
        tail = np.cumsum(self.counts[::-1])[::-1]
        return tail / float(self.node_count)


def degree_distribution(graph: Graph) -> DegreeDistribution:
    counts = np.bincount(graph.degrees(), minlength=1)
    return DegreeDistribution(graph.n, counts.astype(np.int64))


def clustering_coefficient(graph: Graph) -> float:
    """Global clustering: 3 * triangles / wedges."""
    wedges = count_stars(graph, 2)
    if wedges == 0:
        raise ZeroWedgesError("clustering coefficient undefined: the graph has no wedges")
    return 3.0 * count_triangles(graph) / float(wedges)
