"""Graph samplers for generating measures.

One exact sampler and one approximate one:

* ``sample_by_intersection`` — every node draws one category per level;
  given them, pair (u, v) is an independent edge with probability K_uv,
  the product over levels of that level's link probability.  It takes one
  matrix per level, and ``naive_sample`` is its case of k copies of a
  measure's matrix.  The draw is Poisson ball dropping over the category
  codes of the first h levels, h the least depth with m^h >= n (at most k
  and within ``_MAX_CODE_CELLS``), then thinning (Ramani, Eikmeier &
  Gleich, SIAM Review 2019): node u sends a Poisson number of balls, each
  ball picks its target code a level at a time from mode products of the
  code occupancy (Van Loan 2000) and then a node of that code, and each
  pair hit is kept with a probability that makes it an edge with
  probability K_uv exactly.  Each level past the head is bounded by its
  largest entry, and the rates by their product.  When every level's
  largest entry is 1, the pairs whose head links are all 1 would take
  infinitely many balls: they are enumerated instead, by joining occupied
  code prefixes a digit at a time over the cells that are 1, and each
  flips one coin with its tail link.  Work is about linear in n, the edge
  count and those certain pairs, plus (h + 1) m^(h + 1) for the code
  tensors.
* ``fast_sample`` — the approximate box-dropping generator: draw a target
  edge count from the closed-form moments, then, in rounds of whole-array
  work, pick category boxes with probability proportional to their expected
  edge mass and drop a Poisson number of edges into each, until exactly the
  target is placed.  Expected O(|E| log |V|) work.  The target's mean and
  variance are ``edge_moments`` of the schedule of level matrices (k copies
  of the measure's, each taken once).  A run whose expected edge count is
  beyond ``_MAX_EXPECTED_BOXES`` raises ``TooLargeError`` before any draw.
  A box's pair of category tuples is drawn a group of levels at a time:
  each group's table is the Kronecker product of its levels' edge masses,
  within ``_MAX_GROUP_CELLS`` cells unless it is one level, and one
  uniform picks a cell from its alias table in O(1).  The category-box
  lookups and the placement's membership tests search their queries in
  sorted order.  Far past log_m n levels most boxes are empty and the run
  can stall (``StalledError``); ``naive_sample`` is the route there.

Both samplers build a ``Graph``'s own form, the sorted edge keys
``u * n + v`` with u < v, and hand it over as it is.

``noisy_sample`` is the fast sampler over a ``make_noise_schedule`` of
independently perturbed level matrices; the exact noisy draw is
``sample_by_intersection`` over the same schedule, and the schedule's
closed forms are ``measure``'s, which read it as its level matrices.

All samplers are deterministic given (inputs, seed), and
``tests/test_sampler.py`` pins the graph each seed gives.  A noise schedule of
amplitude 0 consumes no randomness, so ``noisy_sample`` at b = 0 reproduces
``fast_sample`` bit for bit at a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegenerateDiagonalError, DomainError, StalledError, TooLargeError,
                     UnsupportedMError)
from .features import Graph, _search_sorted
from .measure import GeneratingMeasure, NoiseSchedule, _edge_moments

# Poisson rates are clipped here; placement caps the damage anyway and numpy
# rejects absurd rates outright.
_POISSON_RATE_CAP = 1e12

# A box stops drawing candidate pairs after this many draws.
_MAX_ATTEMPTS_PER_BOX = 50

# The fast sampler gives up once this many boxes in a row placed nothing
# (empty box, zero Poisson draw, or every draw a self-pair or an existing
# edge): the measure is too dense or too degenerate for the heuristic.
_MAX_CONSECUTIVE_REJECTS = 10_000

# Boxes drawn per round: about the remaining edge count, within these
# bounds.  Boxes past the target still take pairs in their round, pairs
# that earlier boxes would have retried into, so a round much larger than
# the need thins out dense blocks.
_MIN_ROUND_BOXES = 256
_MAX_ROUND_BOXES = 1 << 16

# The fast sampler refuses a run whose expected edge count exceeds this:
# it draws about one box per edge, and its work grows with that count.
_MAX_EXPECTED_BOXES = 1 << 32


# ---------------------------------------------------------------------------
# category assignment
# ---------------------------------------------------------------------------

def encode_categories(levels: np.ndarray, m: int) -> np.ndarray:
    """Pack per-level category rows base-m into int64 codes."""
    k = levels.shape[-1]
    powers = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return levels @ powers


def _draw_levels(n: int, k: int, lengths: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """n independent k-tuples of categorical(lengths) draws."""
    cum = np.cumsum(lengths)
    u = rng.random((n, k))
    return np.minimum(np.searchsorted(cum, u, side="right"),
                      lengths.shape[0] - 1).astype(np.int64)


class CategoryIndex:
    """Nodes grouped by encoded category tuple, with vectorized lookup."""

    def __init__(self, codes: np.ndarray):
        order = np.argsort(codes, kind="stable")
        self.codes, self.starts, self.counts = np.unique(
            codes[order], return_index=True, return_counts=True)
        self.nodes = order  # node ids grouped by code

    def lookup(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each code's box as ``(start, count)``: its nodes are
        ``nodes[start:start + count]``, and an empty box has count 0."""
        # Searched in sorted order, each query near the last, then scattered back.
        order = np.argsort(query)
        pos, hit = np.empty(query.shape, dtype=np.int64), np.empty(query.shape, dtype=bool)
        pos[order], hit[order] = _search_sorted(self.codes, query[order])
        return self.starts[pos], np.where(hit, self.counts[pos], 0)


# ---------------------------------------------------------------------------
# exact sampler
# ---------------------------------------------------------------------------

# Ball dropping builds h + 1 tensors over the m^h codes of the first h
# levels, each by a mode product that reads m cells for each cell it writes:
# (h + 1) m^(h + 1) reads, at most this many.
_MAX_CODE_CELLS = 1 << 23


def _unperturbed(matrices: Sequence[np.ndarray], lengths) -> NoiseSchedule:
    """The schedule of these level matrices as they are, every offset 0."""
    return NoiseSchedule(tuple(matrices), np.zeros(len(matrices)), lengths)


def naive_sample(n: int, measure: GeneratingMeasure, rng=None) -> Graph:
    """Exact sampler: ``sample_by_intersection`` over k copies of the matrix.

    Pair (u, v) is an edge with the product over levels of the link
    probability of their categories at that level, independently of every
    other pair.  The measure is checked already, so its matrix is not
    checked k more times.
    """
    return _sample_exact(n, [measure.probs] * measure.k, measure.lengths, rng)


def sample_by_intersection(
    n: int, level_matrices: Sequence[np.ndarray], lengths, rng=None
) -> Graph:
    """Exact sampler with one probability matrix per level.

    Every node draws one category per level up front.  Given them, pair
    (u, v) is an edge with probability ``K_uv``, the product over levels of
    that level's link probability of their categories, independently of
    every other pair; per-level matrices give the exact noisy variant.

    The draw drops balls over the codes of the first h levels (see
    ``_head_depth`` and ``_drop_balls``) and enumerates the pairs whose
    head links are all 1 when there can be any (``_certain_pairs``).
    """
    schedule = _unperturbed(level_matrices, lengths)
    return _sample_exact(n, schedule.level_matrices, schedule.lengths, rng)


def _head_depth(n: int, m: int, k: int) -> int:
    """The least depth h with m^h >= n, capped at k and at the deepest
    whose (h + 1) m^(h + 1) code cells fit ``_MAX_CODE_CELLS``."""
    h = 0
    while h < k and m ** h < n and (h + 2) * m ** (h + 2) <= _MAX_CODE_CELLS:
        h += 1
    return h


def _sample_exact(n: int, matrices: Sequence[np.ndarray], lengths: np.ndarray, rng) -> Graph:
    """``sample_by_intersection`` over checked level matrices and lengths."""
    if n < 1:
        raise DomainError(f"exact sampling needs n >= 1, got {n}")
    m, k = lengths.size, len(matrices)
    rng = np.random.default_rng(rng)
    levels = _draw_levels(n, k, lengths, rng)
    h = _head_depth(n, m, k)
    codes = encode_categories(levels[:, :h], m)
    index = CategoryIndex(codes)
    tops = [float(probs.max()) for probs in matrices]
    tail = math.prod(tops[h:], start=1.0)
    # No link exceeds the product of the levels' largest entries.  Only when
    # that is 1 can a pair be certain; then every tail bound is 1, the balls
    # leave out the pairs whose head links are all 1, and no other pair's
    # link exceeds the largest head entry below 1.
    largest = tail * math.prod(tops[:h], start=1.0)
    certain = largest == 1.0
    if certain:
        largest = max((float(probs[probs < 1.0].max(initial=0.0)) for probs in matrices[:h]),
                      default=0.0)
    # mu's limit at largest -> 0 is 1, but at 0 no ball could be kept, so none is sent.
    mu = -math.log1p(-largest) / largest if largest > 0.0 else 0.0
    keys = _drop_balls(levels, h, codes, index, matrices, mu * tail, certain, rng)
    if certain:
        extra = _certain_pairs(levels, h, index, matrices, rng)
        keys = np.insert(keys, np.searchsorted(keys, extra), extra)
    return Graph(n, keys)


def _mode_product(probs: np.ndarray, tensor: np.ndarray, r: int) -> np.ndarray:
    """Level r's matrix applied along digit r of a flat tensor over base-m
    codes (digit 0 most significant): ``out[.., i, ..] = sum over j of
    probs[i, j] * tensor[.., j, ..]``."""
    m = probs.shape[0]
    cells = tensor.reshape(m ** r, 1, m, -1)
    return np.add.reduce(probs[:, :, None] * cells, axis=2).ravel()


def _drop_balls(levels: np.ndarray, h: int, codes: np.ndarray, index: CategoryIndex,
                matrices: Sequence[np.ndarray], rate: float, certain: bool,
                rng: np.random.Generator) -> np.ndarray:
    """Sorted edge keys of one exact draw given the nodes' categories,
    every pair whose first h links are all 1 left out when ``certain``.

    Over the codes of the first h levels, ``W_h`` is the occupancy c, and
    ``W_r`` is level r's matrix applied along digit r of ``W_(r+1)`` (Van
    Loan 2000), so ``W_r[b_0..b_(r-1), a_r..a_(h-1)]`` sums ``c_b`` times
    the links of levels r..h-1 over codes b that start with b_0..b_(r-1),
    and ``W_0 = H c`` for the head links H.  Node u, with code a, sends
    Poisson(rate/2 (H c)_a) balls.  A ball picks its target code a digit at
    a time, digit j at level r with weight ``P_r[a_r, j] W_(r+1)[b_0..b_(r-1),
    j, a_(r+1)..]``; the weights telescope to ``H_ab c_b / (H c)_a``, and
    the ball then hits a node of code b uniformly.  So each pair u != v
    takes Poisson(rate H_uv) balls, independently of every other pair;
    self-hits are dropped.  A hit pair is kept with probability
    ``K_uv / (1 - exp(-rate H_uv))``, K_uv its full link, so it is an edge
    with probability ``K_uv`` (Ramani, Eikmeier & Gleich, SIAM Review 2019)
    as long as that is at most 1, which ``_sample_exact`` sees to by its
    choice of rate.
    """
    m, n = matrices[0].shape[0], codes.size
    steps = np.arange(m)
    tensors = [np.zeros(m ** h)]
    tensors[0][index.codes] = index.counts
    for r in reversed(range(h)):
        tensors.append(_mode_product(matrices[r], tensors[-1], r))
    tensors.reverse()

    source = np.repeat(np.arange(n), rng.poisson(0.5 * rate * tensors[0][codes]))
    # A ball's cell of W_r: its target's digits before r, its source's from r.
    cell = codes[source]
    link = np.ones(source.size)
    for r, probs in enumerate(matrices[:h]):
        stride = m ** (h - 1 - r)
        digit = levels[source, r]
        base = cell - digit * stride
        cumulative = (probs[digit] * tensors[r + 1][base[:, None] + steps * stride]).cumsum(axis=1)
        # u * total < total for u < 1, so a digit of weight 0 is never picked.
        x = rng.random(source.size) * cumulative[:, -1]
        pick = (x[:, None] >= cumulative[:, :-1]).sum(axis=1)
        cell = base + pick * stride
        link *= probs[digit, pick]
    if certain:
        # Only a product of entries that are all 1 is 1.
        below = link < 1.0
        source, cell, link = source[below], cell[below], link[below]
    start, count = index.lookup(cell)
    target = index.nodes[start + rng.integers(0, count)]

    hit = source != target
    source, target, link = source[hit], target[hit], link[hit]
    keys, first = np.unique(np.minimum(source, target) * n + np.maximum(source, target),
                            return_index=True)
    source, target, link = source[first], target[first], link[first]
    full = link * _tail_link(levels, h, matrices, source, target)
    return keys[rng.random(keys.size) * -np.expm1(-rate * link) < full]


def _tail_link(levels: np.ndarray, h: int, matrices: Sequence[np.ndarray],
               u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The links of levels h.. of node pairs (u, v), multiplied."""
    link = np.ones(u.size)
    for r in range(h, len(matrices)):
        link *= matrices[r][levels[u, r], levels[v, r]]
    return link


def _certain_pairs(levels: np.ndarray, h: int, index: CategoryIndex,
                   matrices: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Sorted edge keys among the node pairs whose first h links are all 1.

    Code pairs a <= b of occupied prefixes are joined a digit at a time,
    over the cells of each level whose entry is 1; a pair of equal codes
    extends only by i <= j, and a pair a < b stays ordered whatever it
    extends by.  Each node pair of the resulting code pairs is then an edge
    with its tail link, one coin each.
    """
    m, n = matrices[0].shape[0], levels.shape[0]
    a = b = np.zeros(1, dtype=np.int64)  # code pairs of the prefixes so far
    for r in range(h):
        # The occupied codes' prefixes of r + 1 digits, sorted.
        prefix = index.codes // m ** (h - 1 - r)
        i, j = np.nonzero(matrices[r] == 1.0)
        a, b = (a[:, None] * m + i).ravel(), (b[:, None] * m + j).ravel()
        keep = (a <= b) & _search_sorted(prefix, a)[1] & _search_sorted(prefix, b)[1]
        a, b = a[keep], b[keep]
    # Every node pair (s, t) of each code pair, s < t within one code.
    pos_a, pos_b = np.searchsorted(index.codes, a), np.searchsorted(index.codes, b)
    size = index.counts[pos_a] * index.counts[pos_b]
    owner = np.repeat(np.arange(a.size), size)
    s, t = np.divmod(np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size),
                     index.counts[pos_b][owner])
    keep = (a[owner] < b[owner]) | (s < t)
    owner, s, t = owner[keep], s[keep], t[keep]
    u = index.nodes[index.starts[pos_a][owner] + s]
    v = index.nodes[index.starts[pos_b][owner] + t]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    return np.sort(keys[rng.random(keys.size) < _tail_link(levels, h, matrices, u, v)])


# ---------------------------------------------------------------------------
# fast approximate sampler
# ---------------------------------------------------------------------------

# A group of levels is drawn from one table of at most this many cells.
_MAX_GROUP_CELLS = 1024


def _level_groups(m: int, k: int) -> list[slice]:
    """Split k levels into consecutive groups of the largest size g whose
    table, m^(2g) cells, stays within ``_MAX_GROUP_CELLS`` (a single level
    when even one level is larger), the last group taking what is left.
    g is capped at k, since at m = 1 every size fits."""
    g = 1
    while g < k and m ** (2 * (g + 1)) <= _MAX_GROUP_CELLS:
        g += 1
    return [slice(start, min(start + g, k)) for start in range(0, k, g)]


@dataclass(frozen=True)
class QTable:
    """Alias table of the edge mass of a group of g levels.

    The group's mass is the Kronecker product of its levels' Q tables
    Q_ij = p_ij * l_i * l_j: cell ``c = I * width + J`` of its K = width^2
    cells, width = m^g, is an ordered pair of category tuples I, J of the g
    levels, codes base m with the group's first level most significant.
    ``lengths[I]`` is the product of the tuple's lengths.  A draw of a cell
    is one lookup (Walker 1977; Vose 1991): ``x = u * K`` for a uniform u,
    ``c = min(floor(x), K - 1)``, and the cell is c when ``x - c < prob[c]``,
    else ``alias[c]``.  The clamp only guards the index: for every u < 1,
    x rounds to below K.  A zero-mass cell has ``prob`` 0 and is no cell's
    alias.
    """

    prob: np.ndarray
    alias: np.ndarray
    lengths: np.ndarray
    width: int

    def sample_pairs(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.random(size) * self.prob.size
        c = np.minimum(x.astype(np.int64), self.prob.size - 1)
        return np.divmod(np.where(x - c < self.prob[c], c, self.alias[c]), self.width)


def build_q(matrices: Sequence[np.ndarray], lengths: np.ndarray) -> QTable:
    """Build the alias table of a group of consecutive level matrices, each
    with positive mass."""
    mass, group_lengths = np.ones((1, 1)), np.ones(1)
    for p in matrices:
        mass = np.kron(mass, p * lengths[:, None] * lengths[None, :])
        group_lengths = np.kron(group_lengths, lengths)
    # Vose's construction: scaled to a mean of one, each cell below one is
    # topped up from a cell above one, which becomes its alias.
    q = (mass.ravel() * (mass.size / mass.sum())).tolist()
    prob, alias = [1.0] * len(q), list(range(len(q)))
    small = [c for c, x in enumerate(q) if x < 1.0]
    large = [c for c, x in enumerate(q) if x >= 1.0]
    while small and large:
        s, big = small.pop(), large[-1]
        prob[s], alias[s] = q[s], big
        q[big] -= 1.0 - q[s]
        if q[big] < 1.0:
            small.append(large.pop())
    # Cells left in either list hold one up to rounding and keep prob 1.
    return QTable(prob=np.array(prob), alias=np.array(alias, dtype=np.int64),
                  lengths=group_lengths, width=group_lengths.size)


def fast_sample(n: int, measure: GeneratingMeasure, rng=None) -> Graph:
    """Approximate sampler with expected O(|E| log |V|) running time.

    When the expected edge count exceeds ``_MAX_EXPECTED_BOXES``,
    ``TooLargeError`` is raised before any draw.  Far past log_m n levels
    most category boxes are empty and the sampler can raise
    ``StalledError``: on the block measure at k = 34 and n = 20,000, and on
    ``[0.5, 0.5]``, ``[[0.9, 0.3], [0.3, 0.9]]`` at k = 30 and n = 3000,
    seeds 0 to 3 all stall.  ``naive_sample`` draws the exact law there.
    """
    return _fast_sample_levels(
        n, _unperturbed([measure.probs] * measure.k, measure.lengths), rng)


def _fast_sample_levels(n: int, schedule: NoiseSchedule, rng) -> Graph:
    """The box-dropping generator over a schedule's level matrices.

    Edges are placed in rounds.  A round draws a batch of boxes (ordered
    pairs of category tuples) a group of levels at a time, one alias-table
    lookup per box and group (see ``QTable``), gives each box a Poisson
    number of edges, capped at the box's distinct node pairs, and then runs
    retry passes: every box that still misses edges draws one candidate
    pair per missing edge, until it has its count or has spent
    ``_MAX_ATTEMPTS_PER_BOX`` draws.  A candidate is kept unless it is a
    self-pair, an edge of an earlier round, or a pair already taken in this
    round; within one pass the earliest box wins.  Edges count in box order
    and the run stops at exactly the drawn target.
    """
    if n < 1:
        raise DomainError(f"fast sampling needs n >= 1, got {n}")
    rng = np.random.default_rng(rng)
    matrices, lengths = schedule.level_matrices, schedule.lengths
    m, k = lengths.size, len(matrices)

    moments = _edge_moments(schedule, n)
    if moments.mean > _MAX_EXPECTED_BOXES:
        raise TooLargeError(
            f"{moments.mean:.6g} expected edges ask for more than "
            f"{_MAX_EXPECTED_BOXES} box draws")
    max_edges = math.comb(n, 2)
    target = int(min(max(rng.normal(moments.mean, moments.std), 0.0), float(max_edges)))

    index = CategoryIndex(encode_categories(_draw_levels(n, k, lengths, rng), m))
    if target == 0:
        return Graph.empty(n)
    # A positive target means every level's pair survival, its Q mass, is positive.
    tables = [build_q(matrices[group], lengths) for group in _level_groups(m, k)]

    placed = np.empty(0, dtype=np.int64)  # sorted keys u * n + v, u < v
    streak = 0  # boxes in a row, at the end of those counted so far, that placed nothing
    while placed.size < target:
        need = target - placed.size
        boxes = min(max(need, _MIN_ROUND_BOXES), _MAX_ROUND_BOXES)

        code_u = code_v = np.zeros(boxes, dtype=np.int64)
        l_u = l_v = np.ones(boxes)
        for table in tables:
            i, j = table.sample_pairs(rng, boxes)
            code_u, code_v = code_u * table.width + i, code_v * table.width + j
            l_u, l_v = l_u * table.lengths[i], l_v * table.lengths[j]
        start_u, cnt_u = index.lookup(code_u)
        start_v, cnt_v = index.lookup(code_v)

        same = code_u == code_v
        # Expected ordered pair count of the box: n(n-1) l l' across boxes,
        # n(n l^2 - l^2 + l) within one box (self-pairs included by design).
        pair_mass = np.where(
            same,
            n * (n * l_u * l_u - l_u * l_u + l_u),
            float(n) * (n - 1) * l_u * l_v,
        )
        # Rate is actual over expected pairs: an over-occupied box must absorb
        # proportionally more edges, or light boxes soak up more than their
        # share and the clustering comes out too high.  fmin sends an empty
        # box's 0/0 to the cap, and that box's pair cap of 0 keeps it empty.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lam = np.fmin(cnt_u * cnt_v / pair_mass, _POISSON_RATE_CAP)
        want = np.minimum(rng.poisson(lam),
                          np.where(same, cnt_u * (cnt_u - 1) // 2, cnt_u * cnt_v))

        got = np.zeros(boxes, dtype=np.int64)
        spent = np.zeros(boxes, dtype=np.int64)
        taken = np.empty(0, dtype=np.int64)  # sorted keys placed in this round
        owners, keys = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        live = np.flatnonzero(want)
        while live.size:
            draws = np.minimum(want[live] - got[live], _MAX_ATTEMPTS_PER_BOX - spent[live])
            spent[live] += draws
            owner = np.repeat(live, draws)
            u = index.nodes[start_u[owner] + rng.integers(0, cnt_u[owner])]
            v = index.nodes[start_v[owner] + rng.integers(0, cnt_v[owner])]
            key = np.minimum(u, v) * n + np.maximum(u, v)
            # A key's checks do not depend on its draw, so only the sorted
            # distinct keys are tested, and each fresh one keeps its first draw.
            distinct, first = np.unique(key, return_index=True)
            ok = ((distinct // n != distinct % n) & ~_search_sorted(placed, distinct)[1]
                  & ~_search_sorted(taken, distinct)[1])
            fresh_keys = distinct[ok]
            taken = np.insert(taken, np.searchsorted(taken, fresh_keys), fresh_keys)
            fresh = np.sort(first[ok])
            owners.append(owner[fresh])
            keys.append(key[fresh])
            got += np.bincount(owner[fresh], minlength=boxes)
            live = live[(got[live] < want[live]) & (spent[live] < _MAX_ATTEMPTS_PER_BOX)]

        # The round's edges in box order, cut at the target.
        order = np.argsort(np.concatenate(owners), kind="stable")[:need]
        new = np.sort(np.concatenate(keys)[order])
        placed = np.insert(placed, np.searchsorted(placed, new), new)

        # Only a round that falls short counts all its boxes, and only then
        # can the run of boxes that placed nothing carry on into the next.
        hits = np.flatnonzero(got)
        streak = boxes - 1 - int(hits[-1]) if hits.size else streak + boxes
        if placed.size < target and streak > _MAX_CONSECUTIVE_REJECTS:
            raise StalledError(
                f"no edge placed in {streak} consecutive boxes "
                f"({placed.size} of {target} edges placed)",
                placed=placed.size, target=target, streak=streak)

    return Graph(n, placed)


# ---------------------------------------------------------------------------
# noisy variant
# ---------------------------------------------------------------------------

def make_noise_schedule(measure: GeneratingMeasure, b: float, rng=None) -> NoiseSchedule:
    """Draw per-level matrices for the noisy sampler (two categories only).

    ``offsets[i]`` is the uniform draw applied at level i; each level matrix
    adds it to the off-diagonal entries and takes 2 * offset from the
    diagonal, split in proportion to the diagonal entries, so the total of
    all four entries is preserved, then clamps entrywise to [0, 1].  With b == 0
    the schedule repeats the measure's matrix bit for bit and consumes no
    randomness, so noisy runs at zero amplitude reproduce the plain samplers
    exactly.
    """
    if measure.m != 2:
        raise UnsupportedMError(
            f"noise schedules are defined for m = 2 measures, got m = {measure.m}")
    if not (0.0 <= b <= 1.0):
        raise DomainError(f"noise amplitude must lie in [0, 1], got {b!r}")
    p = measure.probs
    k = measure.k
    if b == 0.0:
        return _unperturbed([p] * k, measure.lengths)
    diag_sum = float(p[0, 0] + p[1, 1])
    if diag_sum <= 0.0:
        raise DegenerateDiagonalError(
            "noise rebalancing divides by p11 + p22, which is zero")
    rng = np.random.default_rng(rng)
    offsets = rng.uniform(-b, b, size=k)
    mats = []
    for mu in offsets:
        shifted = np.array([
            [p[0, 0] - 2.0 * mu * p[0, 0] / diag_sum, p[0, 1] + mu],
            [p[1, 0] + mu, p[1, 1] - 2.0 * mu * p[1, 1] / diag_sum],
        ])
        mats.append(np.clip(shifted, 0.0, 1.0))
    return NoiseSchedule(tuple(mats), offsets, measure.lengths)


def noisy_sample(n: int, measure: GeneratingMeasure, b: float, rng=None) -> Graph:
    """The fast sampler over independently perturbed per-level matrices.

    b == 0 reproduces :func:`fast_sample` bit for bit at a fixed seed.  The exact noisy draw
    is ``sample_by_intersection`` over the schedule's ``level_matrices``.
    """
    rng = np.random.default_rng(rng)
    return _fast_sample_levels(n, make_noise_schedule(measure, b, rng), rng)
