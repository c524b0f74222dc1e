"""Graph samplers for generating measures.

Three ways to draw a graph:

* ``naive_sample`` — assign every node its k-tuple of categories, then flip
  one coin per node pair with the product of per-level link probabilities.
  Exact, O(n^2).
* ``sample_by_intersection`` — draw one depth-1 graph per level (fresh
  categories each level) and keep the edges present in all of them.  Exact,
  distributed like the naive sampler, and it accepts a different matrix per
  level, which is what the noisy variant needs.
* ``fast_sample`` — the approximate box-dropping generator: draw a target
  edge count from the closed-form moments, then repeatedly pick a category
  box with probability proportional to its expected edge mass and drop a
  Poisson number of edges into it.  Expected O(|E| log |V|) work.

All samplers are deterministic given (inputs, seed).  ``noisy_sample`` with
noise amplitude 0 consumes no randomness while building its schedule, so it
reproduces the corresponding plain sampler bit for bit at a fixed seed.
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
    NonSymmetricError,
    ProbabilityRangeError,
    StalledError,
    UnsupportedMError,
)
from .features import Graph
from .measure import EdgeMoments, GeneratingMeasure, _edge_moments_from_logs

# Box draws, Poisson draws, and placement attempts are generated in batches
# of this many boxes at a time; purely an implementation constant.
_BOX_BATCH = 8192

# Poisson rates are clipped here; placement caps the damage anyway and numpy
# rejects absurd rates outright.
_POISSON_RATE_CAP = 1e12


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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
        if self.codes.size == 0:
            return np.full(np.shape(query), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.codes, query), self.codes.size - 1)
        hit = self.codes[pos] == query
        return np.where(hit, pos, -1)


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

_PAIR_BLOCK = 512


def _scan_pairs(n: int, pair_prob, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One Bernoulli draw per node pair u < v, a block of rows at a time.

    ``pair_prob(u0, u1)`` returns the link probabilities of rows u0..u1-1
    against all n columns; the hits come back as endpoint arrays in row-major
    order.
    """
    us, vs = [], []
    cols = np.arange(n, dtype=np.int64)
    for u0 in range(0, n, _PAIR_BLOCK):
        u1 = min(u0 + _PAIR_BLOCK, n)
        rows = np.arange(u0, u1, dtype=np.int64)[:, None]
        mask = cols[None, :] > rows
        p = pair_prob(u0, u1)[mask]
        hit = rng.random(p.size) < p
        us.append(np.broadcast_to(rows, mask.shape)[mask][hit])
        vs.append(np.broadcast_to(cols[None, :], mask.shape)[mask][hit])
    return np.concatenate(us), np.concatenate(vs)


def naive_sample(n: int, measure: GeneratingMeasure, rng=None) -> Graph:
    """Exact sampler: one Bernoulli draw per node pair.

    The success probability of pair (u, v) is the product over levels of the
    link probability of their categories at that level.  Quadratic in n; use
    the fast sampler beyond a few thousand nodes.
    """
    if n < 1:
        raise DomainError(f"naive_sample needs n >= 1, got {n}")
    rng = _as_generator(rng)
    levels = _draw_levels(n, measure.k, measure.lengths, rng)
    probs = measure.probs

    def pair_prob(u0: int, u1: int) -> np.ndarray:
        prob = np.ones((u1 - u0, n))
        for r in range(measure.k):
            prob *= probs[levels[u0:u1, r][:, None], levels[:, r][None, :]]
        return prob

    iu, iv = _scan_pairs(n, pair_prob, rng)
    return Graph.from_pairs(n, np.column_stack([iu, iv]))


def _check_level_matrix(probs: np.ndarray, m: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (m, m):
        raise ProbabilityRangeError(
            f"level matrix must be {m}x{m}, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ProbabilityRangeError("level matrix entries must lie in [0, 1]")
    if not np.array_equal(probs, probs.T):
        raise NonSymmetricError("level matrix must be exactly symmetric")
    return probs


def sample_by_intersection(
    n: int, level_matrices: Sequence[np.ndarray], lengths, rng=None
) -> Graph:
    """Exact sampler built level by level.

    Draws one depth-1 graph per level matrix (fresh category assignment and
    fresh coin flips each level) and intersects the edge sets.  With all
    level matrices equal to a measure's matrix this has exactly the naive
    sampler's distribution; with per-level matrices it realizes the noisy
    variant.
    """
    if n < 1:
        raise DomainError(f"sample_by_intersection needs n >= 1, got {n}")
    lengths = np.asarray(lengths, dtype=float)
    m = lengths.shape[0]
    matrices = [_check_level_matrix(p, m) for p in level_matrices]
    if not matrices:
        raise DomainError("need at least one level matrix")
    rng = _as_generator(rng)

    # Level 1 scans all pairs blockwise; the survivors shrink fast.
    cats = _draw_levels(n, 1, lengths, rng)[:, 0]
    first = matrices[0]
    iu, iv = _scan_pairs(
        n, lambda u0, u1: first[cats[u0:u1][:, None], cats[None, :]], rng)

    for probs in matrices[1:]:
        cats = _draw_levels(n, 1, lengths, rng)[:, 0]
        p = probs[cats[iu], cats[iv]]
        keep = rng.random(p.size) < p
        iu, iv = iu[keep], iv[keep]
    return Graph.from_pairs(n, np.column_stack([iu, iv]))


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


@dataclass(frozen=True)
class FastSamplerConfig:
    """Tuning knobs of the fast sampler.

    ``accuracy`` divides the per-box Poisson rate (larger = more, smaller
    boxes); ``max_attempts_per_box`` caps placement retries inside one box;
    ``max_consecutive_rejects`` aborts the run when that many box draws in a
    row place nothing (empty box, zero Poisson draw, or all attempts spent),
    which flags measures too dense or degenerate for the heuristic.
    """

    accuracy: float = 1.0
    max_attempts_per_box: int = 50
    max_consecutive_rejects: int = 10_000

    def __post_init__(self):
        if not (self.accuracy > 0.0 and math.isfinite(self.accuracy)):
            raise DomainError(f"accuracy must be positive, got {self.accuracy!r}")
        if self.max_attempts_per_box < 1:
            raise DomainError("max_attempts_per_box must be at least 1")
        if self.max_consecutive_rejects < 1:
            raise DomainError("max_consecutive_rejects must be at least 1")


def _target_edge_moments(
    n: int, matrices: Sequence[np.ndarray], lengths: np.ndarray
) -> EdgeMoments:
    """Edge-count moments with per-level survival factors.

    The same closed forms as :func:`edge_moments`, with k * log s and the
    wedge term replaced by sums of per-level logs.
    """
    log_s = 0.0
    log_wedge = 0.0
    for probs in matrices:
        s_i = float(lengths @ probs @ lengths)
        if s_i <= 0.0:
            raise AllZeroMeasureError("a level has zero edge mass; nothing to sample")
        log_s += math.log(s_i)
        row = probs @ lengths
        w_i = float(np.dot(lengths, row ** 2))
        log_wedge += math.log(w_i) if w_i > 0.0 else -math.inf
    return _edge_moments_from_logs(n, log_s, log_wedge)


def fast_sample(
    n: int, measure: GeneratingMeasure, config: FastSamplerConfig | None = None, rng=None
) -> Graph:
    """Approximate sampler with expected O(|E| log |V|) running time."""
    return _fast_sample_levels(
        n, [measure.probs] * measure.k, measure.lengths, config, rng)


def _fast_sample_levels(
    n: int,
    matrices: Sequence[np.ndarray],
    lengths,
    config: FastSamplerConfig | None,
    rng,
) -> Graph:
    if n < 2:
        raise DomainError(f"fast sampling needs n >= 2, got {n}")
    config = config or FastSamplerConfig()
    rng = _as_generator(rng)
    lengths = np.asarray(lengths, dtype=float)
    m = lengths.shape[0]
    k = len(matrices)
    tables = [build_q(p, lengths) for p in matrices]

    moments = _target_edge_moments(n, matrices, lengths)
    max_edges = math.comb(n, 2)
    target = int(min(max(rng.normal(moments.mean, moments.std), 0.0), float(max_edges)))

    index = CategoryIndex(encode_categories(_draw_levels(n, k, lengths, rng), m))

    graph_nodes = index.nodes
    if target == 0:
        return Graph.empty(n)

    max_attempts = config.max_attempts_per_box
    max_rejects = config.max_consecutive_rejects
    lam_div = config.accuracy
    edge_keys: set[int] = set()
    e_global = 0
    consecutive_rejects = 0

    def reject(boxes: int) -> None:
        """Count boxes that placed nothing; give up once the streak is too long."""
        nonlocal consecutive_rejects
        consecutive_rejects += boxes
        if consecutive_rejects > max_rejects:
            raise StalledError(
                f"no edge placed in {consecutive_rejects} consecutive boxes "
                f"({e_global} of {target} edges placed)",
                placed=e_global, target=target, streak=consecutive_rejects)

    # Placement coordinates are pre-drawn vectorized for the boxes that will
    # actually try to place; a short prefix covers almost every box, and the
    # rare box that exhausts it (collisions, self-pairs) draws the rest of
    # its attempt budget on its own.
    prefix = min(4, max_attempts)

    while e_global < target:
        batch = _BOX_BATCH
        ci = np.empty((batch, k), dtype=np.int64)
        cj = np.empty((batch, k), dtype=np.int64)
        for h in range(k):
            i_h, j_h = tables[h].sample_pairs(rng, batch)
            ci[:, h] = i_h
            cj[:, h] = j_h
        code_u = encode_categories(ci, m)
        code_v = encode_categories(cj, m)
        l_u = lengths[ci].prod(axis=1)
        l_v = lengths[cj].prod(axis=1)
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
        lam = np.where(valid, cnt_u * cnt_v / (lam_div * pair_mass), 0.0)
        e_add = rng.poisson(np.minimum(lam, _POISSON_RATE_CAP))

        active = np.nonzero(valid & (e_add > 0))[0]
        if active.size:
            su = index.starts[pos_u[active]]
            sv = index.starts[pos_v[active]]
            cu = cnt_u[active]
            cv = cnt_v[active]
            pre_u = rng.integers(0, cu[:, None], size=(active.size, prefix))
            pre_v = rng.integers(0, cv[:, None], size=(active.size, prefix))
            cand_u = graph_nodes[su[:, None] + pre_u].tolist()
            cand_v = graph_nodes[sv[:, None] + pre_v].tolist()
            wants = e_add[active].tolist()
            cu_list = cu.tolist()
            cv_list = cv.tolist()
            su_list = su.tolist()
            sv_list = sv.tolist()
        else:
            wants = []

        prev = -1
        done = False
        for i, b in enumerate(active.tolist()):
            gap = b - prev - 1
            prev = b
            if gap:
                reject(gap)
            if e_global >= target:
                done = True
                break
            placed = 0
            want = wants[i]
            us = cand_u[i]
            vs = cand_v[i]
            a = 0
            while placed < want and a < max_attempts:
                if a == len(us):  # prefix spent; draw the rest of the budget
                    us = us + graph_nodes[
                        su_list[i] + rng.integers(0, cu_list[i], size=max_attempts - a)
                    ].tolist()
                    vs = vs + graph_nodes[
                        sv_list[i] + rng.integers(0, cv_list[i], size=max_attempts - a)
                    ].tolist()
                u = us[a]
                v = vs[a]
                a += 1
                if u == v:
                    continue
                key = u * n + v if u < v else v * n + u
                if key in edge_keys:
                    continue
                edge_keys.add(key)
                placed += 1
            e_global += placed
            if placed == 0:
                reject(1)
            else:
                consecutive_rejects = 0
        if not done:
            reject(batch - 1 - prev)

    keys = np.fromiter(edge_keys, dtype=np.int64, count=len(edge_keys))
    return Graph.from_pairs(n, np.column_stack([keys // n, keys % n]))


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
    noise: float
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
        return NoiseSchedule(
            level_matrices=tuple([p] * k), noise=0.0, offsets=np.zeros(k))
    rng = _as_generator(rng)
    offsets = rng.uniform(-b, b, size=k)
    mats = []
    for mu in offsets:
        shifted = np.array([
            [p[0, 0] - 2.0 * mu * p[0, 0] / diag_sum, p[0, 1] + mu],
            [p[1, 0] + mu, p[1, 1] - 2.0 * mu * p[1, 1] / diag_sum],
        ])
        mats.append(np.clip(shifted, 0.0, 1.0))
    return NoiseSchedule(level_matrices=tuple(mats), noise=float(b), offsets=offsets)


def noisy_sample(
    n: int,
    measure: GeneratingMeasure,
    b: float,
    config: FastSamplerConfig | None = None,
    rng=None,
    method: str = "fast",
) -> Graph:
    """Sample with independently perturbed per-level matrices.

    ``method="fast"`` runs the box-dropping sampler over the schedule;
    ``method="exact"`` intersects per-level graphs.  Either way, b == 0
    reproduces the corresponding plain sampler bit for bit at a fixed seed.
    """
    rng = _as_generator(rng)
    schedule = make_noise_schedule(measure, b, rng)
    if method == "fast":
        return _fast_sample_levels(n, schedule.level_matrices, measure.lengths, config, rng)
    if method == "exact":
        return sample_by_intersection(n, schedule.level_matrices, measure.lengths, rng)
    raise DomainError(f"unknown sampling method: {method!r}")
