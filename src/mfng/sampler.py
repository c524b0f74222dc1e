"""Graph samplers for generating measures.

One exact sampler and one approximate one:

* ``sample_by_intersection`` — every node draws one category per level,
  then node pairs u < v are scanned a block of rows at a time, each level
  flipping one coin per surviving pair with that level's link probability.
  The levels are independent, so this is exact; it takes one matrix per
  level.  ``naive_sample`` is its case of k copies of a measure's matrix.
  O(n^2).
* ``fast_sample`` — the approximate box-dropping generator: draw a target
  edge count from the closed-form moments, then, in rounds of whole-array
  work, pick category boxes with probability proportional to their expected
  edge mass and drop a Poisson number of edges into each, until exactly the
  target is placed.  Expected O(|E| log |V|) work.

``noisy_sample`` is the fast sampler over a ``make_noise_schedule`` of
independently perturbed level matrices; the exact noisy draw is
``sample_by_intersection`` over the same schedule.

All samplers are deterministic given (inputs, seed).  A noise schedule of
amplitude 0 consumes no randomness, so ``noisy_sample`` at b = 0 reproduces
``fast_sample`` bit for bit at a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AllZeroMeasureError,
    DegenerateDiagonalError,
    DomainError,
    StalledError,
    UnsupportedMError,
)
from .features import Graph, _search_sorted
from .measure import (_EDGE_AND_WEDGE, EdgeMoments, GeneratingMeasure, _check_lengths,
                      _check_probs, _edge_moments_from_levels, _level_bases)

# Poisson rates are clipped here; placement caps the damage anyway and numpy
# rejects absurd rates outright.
_POISSON_RATE_CAP = 1e12

# A box stops drawing candidate pairs after this many draws.
_MAX_ATTEMPTS_PER_BOX = 50

# The fast sampler gives up once this many boxes in a row placed nothing
# (empty box, zero Poisson draw, or every draw a self-pair or an existing
# edge): the measure is too dense or too degenerate for the heuristic.
_MAX_CONSECUTIVE_REJECTS = 10_000

# Boxes drawn per round: about the remaining edge count times the accuracy,
# within these bounds.  Boxes past the target still take pairs in their
# round, pairs that earlier boxes would have retried into, so a round much
# larger than the need thins out dense blocks.
_MIN_ROUND_BOXES = 256
_MAX_ROUND_BOXES = 1 << 16


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
        sorted_codes = codes[order]
        unique, starts, counts = np.unique(
            sorted_codes, return_index=True, return_counts=True)
        self.codes = unique
        self.starts = starts
        self.counts = counts
        self.nodes = order  # node ids grouped by code

    def lookup(self, query: np.ndarray) -> np.ndarray:
        """Group positions for encoded codes; -1 where the box is empty."""
        pos, hit = _search_sorted(self.codes, query)
        return np.where(hit, pos, -1)


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

# Rows of node pairs drawn per block; bounds the exact sampler's memory.
_PAIR_BLOCK = 256


def naive_sample(n: int, measure: GeneratingMeasure, rng=None) -> Graph:
    """Exact sampler: ``sample_by_intersection`` over k copies of the matrix.

    Pair (u, v) is an edge with the product over levels of the link
    probability of their categories at that level.  Quadratic in n; use the
    fast sampler beyond a few thousand nodes.
    """
    if n < 1:
        raise DomainError(f"naive_sample needs n >= 1, got {n}")
    return sample_by_intersection(n, [measure.probs] * measure.k, measure.lengths, rng)


def sample_by_intersection(
    n: int, level_matrices: Sequence[np.ndarray], lengths, rng=None
) -> Graph:
    """Exact sampler with one probability matrix per level.

    Every node draws one category per level up front.  Node pairs u < v are
    then scanned a block of rows at a time: each level flips one coin per
    pair still standing, with that level's link probability, and a pair
    that passes every level is an edge.  The levels are independent, so
    this is one coin with the product probability; per-level matrices give
    the exact noisy variant.
    """
    if n < 1:
        raise DomainError(f"sample_by_intersection needs n >= 1, got {n}")
    lengths = _check_lengths(lengths)
    matrices = [_check_probs(p, lengths.size) for p in level_matrices]
    if not matrices:
        raise DomainError("need at least one level matrix")
    rng = np.random.default_rng(rng)
    levels = _draw_levels(n, len(matrices), lengths, rng)

    blocks = []
    for u0 in range(0, n, _PAIR_BLOCK):
        # A block of rows from u0 against columns u0+1..n-1; triu keeps v > u.
        row_cats, col_cats = levels[u0:u0 + _PAIR_BLOCK, 0], levels[u0 + 1:, 0]
        p = np.triu(matrices[0][row_cats[:, None], col_cats[None, :]])
        iu, iv = np.nonzero(rng.random(p.shape) < p)
        iu, iv = iu + u0, iv + u0 + 1
        for r, probs in enumerate(matrices[1:], start=1):
            keep = rng.random(iu.size) < probs[levels[iu, r], levels[iv, r]]
            iu, iv = iu[keep], iv[keep]
        blocks.append(np.column_stack([iu, iv]))
    return Graph.from_pairs(n, np.concatenate(blocks))


# ---------------------------------------------------------------------------
# fast approximate sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QTable:
    """Per-level edge-mass table Q_ij = p_ij * l_i * l_j.

    ``total`` is the level's edge survival factor s, and ``cum`` is the
    normalized cumulative mass over row-major cells, ready for inverse-CDF
    draws of an ordered category pair.
    """

    q: np.ndarray
    total: float
    cum: np.ndarray

    def sample_pairs(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        flat = np.searchsorted(self.cum, rng.random(size), side="right")
        flat = np.minimum(flat, self.q.size - 1)
        m = self.q.shape[0]
        return flat // m, flat % m


def build_q(probs: np.ndarray, lengths: np.ndarray) -> QTable:
    """Build the edge-mass table of one level matrix."""
    q = probs * lengths[:, None] * lengths[None, :]
    total = float(q.sum())
    if total <= 0.0:
        raise AllZeroMeasureError("every link probability is zero; nothing to sample")
    cum = np.cumsum(q.ravel()) / total
    return QTable(q=q, total=total, cum=cum)


def _target_edge_moments(
    n: int, matrices: Sequence[np.ndarray], lengths: np.ndarray
) -> EdgeMoments:
    """Edge-count moments with per-level survival factors.

    The same closed forms as :func:`edge_moments`, with the level matrices
    stacked as lanes and their logs summed.
    """
    levels = len(matrices)
    bases = _level_bases(np.stack(matrices), np.broadcast_to(lengths, (levels, lengths.size)),
                         _EDGE_AND_WEDGE)
    if np.any(bases[:, 0] <= 0.0):
        raise AllZeroMeasureError("a level has zero edge mass; nothing to sample")
    return _edge_moments_from_levels(n, bases, 1)


def fast_sample(
    n: int, measure: GeneratingMeasure, rng=None, *, accuracy: float = 1.0
) -> Graph:
    """Approximate sampler with expected O(|E| log |V|) running time.

    ``accuracy`` divides every box's Poisson rate: a larger value drops
    fewer edges into each of more boxes, which follows the measure more
    closely at the cost of more box draws.
    """
    return _fast_sample_levels(
        n, [measure.probs] * measure.k, measure.lengths, accuracy, rng)


def _fast_sample_levels(
    n: int,
    matrices: Sequence[np.ndarray],
    lengths,
    accuracy: float,
    rng,
) -> Graph:
    """The box-dropping generator over one probability matrix per level.

    Edges are placed in rounds.  A round draws a batch of boxes (ordered
    pairs of category tuples) level by level from the Q tables, gives each
    box a Poisson number of edges, capped at the box's distinct node pairs,
    and then runs retry passes: every box that still misses edges draws one
    candidate pair per missing edge, until it has its count or has spent
    ``_MAX_ATTEMPTS_PER_BOX`` draws.  A candidate is kept unless it is a
    self-pair, an edge of an earlier round, or a pair already taken in this
    round; within one pass the earliest box wins.  Edges count in box order
    and the run stops at exactly the drawn target.
    """
    if n < 2:
        raise DomainError(f"fast sampling needs n >= 2, got {n}")
    if not (accuracy > 0.0 and math.isfinite(accuracy)):
        raise DomainError(f"accuracy must be positive and finite, got {accuracy!r}")
    rng = np.random.default_rng(rng)
    lengths = np.asarray(lengths, dtype=float)
    m = lengths.shape[0]
    k = len(matrices)
    tables = [build_q(p, lengths) for p in matrices]

    moments = _target_edge_moments(n, matrices, lengths)
    max_edges = math.comb(n, 2)
    target = int(min(max(rng.normal(moments.mean, moments.std), 0.0), float(max_edges)))

    index = CategoryIndex(encode_categories(_draw_levels(n, k, lengths, rng), m))
    if target == 0:
        return Graph.empty(n)

    placed = np.empty(0, dtype=np.int64)  # sorted keys u * n + v, u < v
    streak = 0  # boxes in a row, up to the end of the last round, that placed nothing
    while placed.size < target:
        need = target - placed.size
        boxes = int(min(max(need * accuracy, _MIN_ROUND_BOXES), _MAX_ROUND_BOXES))

        code_u = code_v = np.zeros(boxes, dtype=np.int64)
        l_u = l_v = np.ones(boxes)
        for table in tables:
            i, j = table.sample_pairs(rng, boxes)
            code_u, code_v = code_u * m + i, code_v * m + j
            l_u, l_v = l_u * lengths[i], l_v * lengths[j]
        pos_u = index.lookup(code_u)
        pos_v = index.lookup(code_v)
        valid = (pos_u >= 0) & (pos_v >= 0)

        same = code_u == code_v
        # Expected ordered pair count of the box: n(n-1) l l' across boxes,
        # n(n l^2 - l^2 + l) within one box (self-pairs included by design).
        pair_mass = np.where(
            same,
            n * (n * l_u * l_u - l_u * l_u + l_u),
            float(n) * (n - 1) * l_u * l_v,
        )
        cnt_u = np.where(valid, index.counts[np.maximum(pos_u, 0)], 1)
        cnt_v = np.where(valid, index.counts[np.maximum(pos_v, 0)], 1)
        # Rate is actual over expected pairs: an over-occupied box must absorb
        # proportionally more edges, or light boxes soak up more than their
        # share and the clustering comes out too high.
        lam = np.where(valid, cnt_u * cnt_v / (accuracy * pair_mass), 0.0)
        want = np.minimum(rng.poisson(np.minimum(lam, _POISSON_RATE_CAP)),
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
            u = index.nodes[index.starts[pos_u[owner]] + rng.integers(0, cnt_u[owner])]
            v = index.nodes[index.starts[pos_v[owner]] + rng.integers(0, cnt_v[owner])]
            key = np.minimum(u, v) * n + np.maximum(u, v)
            fresh = np.flatnonzero((u != v) & ~_search_sorted(placed, key)[1]
                                 & ~_search_sorted(taken, key)[1])
            fresh_keys, first = np.unique(key[fresh], return_index=True)
            taken = np.insert(taken, np.searchsorted(taken, fresh_keys), fresh_keys)
            fresh = fresh[np.sort(first)]
            owners.append(owner[fresh])
            keys.append(key[fresh])
            got += np.bincount(owner[fresh], minlength=boxes)
            live = live[(got[live] < want[live]) & (spent[live] < _MAX_ATTEMPTS_PER_BOX)]

        # Runs of boxes that placed nothing, the first one continuing the
        # last round's; the run at the end counts only if the round fell short.
        cum = np.cumsum(got)
        short = cum[-1] < need
        end = boxes if short else int(np.searchsorted(cum, need)) + 1
        run_ends = np.flatnonzero(got[:end])
        if short:
            run_ends = np.append(run_ends, end)
        runs = np.diff(run_ends, prepend=-1) - 1
        runs[0] += streak
        over = np.flatnonzero(runs > _MAX_CONSECUTIVE_REJECTS)
        if over.size:
            before = run_ends[over[0]] - 1  # the run's last box; cum there excludes the run
            done = placed.size + (int(cum[before]) if before >= 0 else 0)
            streak = int(runs[over[0]])
            raise StalledError(
                f"no edge placed in {streak} consecutive boxes "
                f"({done} of {target} edges placed)",
                placed=done, target=target, streak=streak)
        streak = int(runs[-1])

        # The round's edges in box order, cut at the target.
        order = np.argsort(np.concatenate(owners), kind="stable")[:need]
        new = np.sort(np.concatenate(keys)[order])
        placed = np.insert(placed, np.searchsorted(placed, new), new)

    return Graph.from_pairs(n, np.column_stack([placed // n, placed % n]))


# ---------------------------------------------------------------------------
# noisy variant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSchedule:
    """Per-level probability matrices produced by diagonal-preserving noise.

    ``offsets[i]`` is the uniform draw applied at level i; each level matrix
    adds it to the off-diagonal entries and rebalances the diagonal so the
    diagonal sum is preserved, then clamps entrywise to [0, 1].
    """

    level_matrices: tuple[np.ndarray, ...]
    offsets: np.ndarray


def make_noise_schedule(measure: GeneratingMeasure, b: float, rng=None) -> NoiseSchedule:
    """Draw per-level matrices for the noisy sampler (two categories only).

    With b == 0 the schedule repeats the measure's matrix bit for bit and
    consumes no randomness, so noisy runs at zero amplitude reproduce the
    plain samplers exactly.
    """
    if measure.m != 2:
        raise UnsupportedMError(
            f"noise schedules are defined for m = 2 measures, got m = {measure.m}")
    if not (0.0 <= b <= 1.0):
        raise DomainError(f"noise amplitude must lie in [0, 1], got {b!r}")
    p = measure.probs
    diag_sum = float(p[0, 0] + p[1, 1])
    if diag_sum <= 0.0:
        raise DegenerateDiagonalError(
            "noise rebalancing divides by p11 + p22, which is zero")
    k = measure.k
    if b == 0.0:
        return NoiseSchedule(level_matrices=tuple([p] * k), offsets=np.zeros(k))
    rng = np.random.default_rng(rng)
    offsets = rng.uniform(-b, b, size=k)
    mats = []
    for mu in offsets:
        shifted = np.array([
            [p[0, 0] - 2.0 * mu * p[0, 0] / diag_sum, p[0, 1] + mu],
            [p[1, 0] + mu, p[1, 1] - 2.0 * mu * p[1, 1] / diag_sum],
        ])
        mats.append(np.clip(shifted, 0.0, 1.0))
    return NoiseSchedule(level_matrices=tuple(mats), offsets=offsets)


def noisy_sample(
    n: int, measure: GeneratingMeasure, b: float, rng=None, *, accuracy: float = 1.0
) -> Graph:
    """The fast sampler over independently perturbed per-level matrices.

    ``accuracy`` is as in :func:`fast_sample`, and b == 0 reproduces
    :func:`fast_sample` bit for bit at a fixed seed.  The exact noisy draw
    is ``sample_by_intersection`` over the schedule's ``level_matrices``.
    """
    rng = np.random.default_rng(rng)
    schedule = make_noise_schedule(measure, b, rng)
    return _fast_sample_levels(n, schedule.level_matrices, measure.lengths, accuracy, rng)
