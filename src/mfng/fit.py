"""Moment matching: recover a generating measure from observed counts.

The objective is the sum of relative errors between the observed feature
counts and the measure's expectations, over the keys of the target.  It is
non-convex with many local minima, so the fit runs a derivative-free
simplex search from many random starting points — over a small range of
candidate depths when none is given — and keeps the best.  Every restart
draws its start from its own RNG stream keyed by (seed, depth, restart), so
results are reproducible and adding restarts never discards earlier ones.

Every (depth, restart) search is one lane of a single lockstep simplex
search: each step evaluates the points of every lane that needs one in one
call to a batched objective.  The depth k enters an expectation only
through exp(log placements + k log base), so lanes of all depths share
those calls, and each lane takes exactly the steps it would take alone.
The objective is written once, over stacked measures, from the closed-form
engine in ``measure``: :func:`objective` is its one-lane case, and a fit
computes the target's log placements once.  A fit's objective is its
winning lane's own value.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ZeroTargetFeatureError
# The search never calls expected_edges, expected_d_stars or
# expected_t_cliques; they stay bound here because perfbench/launch.py
# rebinds them in this module by name.
from .measure import (
    FeatureVector,
    GeneratingMeasure,
    _check_integer,
    _check_reals,
    _level_bases,
    _log_expected,
    _log_placements,
    expected_d_stars,
    expected_edges,
    expected_feature_vector,
    expected_t_cliques,
    make_measure,
    max_depth,
    parse_feature,
)

_LOGIT_CLIP = 1e-12
_TINY = np.finfo(float).tiny

# Nelder-Mead stopping tolerances and the iteration cap of one local search.
_FATOL = 1e-10
_XATOL = 1e-6
_MAX_ITERATIONS = 2000

# Nelder-Mead's initial simplex steps (relative, and absolute for a zero
# coordinate) and its reflection, expansion, contraction and shrink factors.
_NONZDELT = 0.05
_ZDELT = 0.00025
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of a Nelder-Mead search: the best vertex ``x``, its value
    ``fun``, the evaluation count ``nfev`` and ``success``, false when a
    budget ran out.  :func:`minimize` gives one search's values;
    :func:`minimize_lanes` gives arrays with one entry (or row) per lane."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


def minimize(fun, x0) -> SimplexResult:
    """Nelder-Mead simplex search (Nelder & Mead, Comput. J. 1965) from x0.

    This is scipy's ``minimize(method="Nelder-Mead")`` at the fit's options
    (``fatol=_FATOL``, ``xatol=_XATOL``, ``maxiter=_MAX_ITERATIONS``,
    ``maxfev=2 * _MAX_ITERATIONS``), written out step for step: the same
    initial simplex, step arithmetic, sorts, convergence test and budget
    handling, so every iterate, ``nfev`` and ``success`` equal scipy's, and
    no scipy module is loaded.  ``success`` is false when either budget ran
    out.  ``fun`` is called with points of the simplex and must not modify
    its argument.

    It is the one-lane case of :func:`minimize_lanes`.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    lane = minimize_lanes(
        lambda points, lanes: np.array([fun(x) for x in points], dtype=float), x0[None])
    return SimplexResult(x=lane.x[0], fun=lane.fun[0], nfev=int(lane.nfev[0]),
                         success=bool(lane.success[0]))


def minimize_lanes(fun, x0) -> SimplexResult:
    """Independent Nelder-Mead searches from the rows of x0, in lockstep.

    Lane i takes exactly the steps :func:`minimize` takes from ``x0[i]``,
    with its own budgets, and stops when it converges or a budget runs out.
    Reflection, expansion, contraction and shrink are masked updates of an
    (L, N+1, N) array of simplices, and the points that one phase of a step
    needs in all lanes go to ``fun`` in one call.  ``fun(points, lanes)``
    gets a (P, N) array of points and the (P,) lane index of each; it
    returns their (P,) values, must not modify its arguments, and a point's
    value may depend only on the point and its lane.

    Returns a :class:`SimplexResult` of arrays: ``x`` is (L, N) and
    ``fun``, ``nfev`` and ``success`` are (L,).
    """
    maxiter, maxfev = _MAX_ITERATIONS, 2 * _MAX_ITERATIONS
    x0 = np.array(x0, dtype=float, ndmin=2)
    L, N = x0.shape
    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    diagonal = np.arange(N)
    sim[:, diagonal + 1, diagonal] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = np.full((L, N + 1), np.inf)
    first = min(N + 1, maxfev)  # the initial vertices the budget allows
    fsim[:, :first] = fun(sim[:, :first].reshape(-1, N),
                          np.repeat(np.arange(L), first)).reshape(L, first)
    nfev = np.full(L, first)
    iterations = np.ones(L, dtype=int)
    converged = np.zeros(L, dtype=bool)
    for _ in range(2):  # scipy sorts twice here; ties may reorder
        sim, fsim = _sorted(sim, fsim)

    vertex = np.arange(N + 1)
    while True:
        run = np.flatnonzero(~converged & (nfev < maxfev) & (iterations < maxiter))
        s, f = sim[run], fsim[run]
        done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _XATOL)
                & (np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= _FATOL))
        converged[run[done]] = True
        run, s, f = run[~done], s[~done], f[~done]
        if run.size == 0:
            break
        xbar = np.add.reduce(s[:, :-1], 1) / N
        worst = s[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = fun(xr, run)
        nfev[run] += 1
        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept & (fxr < f[:, -1])
        # The second point of the step: expansion, or outside or inside
        # contraction.  A lane with no evaluation left ends its step here.
        x2 = np.where(expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
                      np.where(outside[:, None],
                               (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                               (1 - _PSI) * xbar + _PSI * worst))
        second = ~accept & (nfev[run] < maxfev)
        f2 = np.full(run.size, np.nan)
        if second.any():
            f2[second] = fun(x2[second], run[second])
            nfev[run[second]] += 1
        take_x2 = second & np.where(expand, f2 < fxr,
                                    np.where(outside, f2 <= fxr, f2 < f[:, -1]))
        take_xr = accept | (second & expand & ~take_x2)
        s[take_xr, -1], f[take_xr, -1] = xr[take_xr], fxr[take_xr]
        s[take_x2, -1], f[take_x2, -1] = x2[take_x2], f2[take_x2]
        shrink = second & ~expand & ~take_x2
        stepped = accept | (second & ~shrink)
        if shrink.any():
            # Vertex j moves, then is evaluated; a lane whose budget runs
            # out moves one vertex more than it evaluates and ends its step.
            rows = np.flatnonzero(shrink)
            budget = (maxfev - nfev[run[rows]])[:, None]
            block, fblock = s[rows], f[rows]
            moved = block[:, :1] + _SIGMA * (block - block[:, :1])
            move = (vertex >= 1) & (vertex <= budget + 1)
            evaluate = (vertex >= 1) & (vertex <= budget)
            block[move] = moved[move]
            counts = evaluate.sum(axis=1)
            if counts.any():
                fblock[evaluate] = fun(block[evaluate], np.repeat(run[rows], counts))
            s[rows], f[rows] = block, fblock
            nfev[run[rows]] += counts
            stepped[rows] = counts == N
        iterations[run[stepped]] += 1
        sim[run], fsim[run] = _sorted(s, f)

    return SimplexResult(x=sim[:, 0], fun=fsim.min(axis=1), nfev=nfev,
                         success=(nfev < maxfev) & (iterations < maxiter))


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's simplex with its vertices in order of value."""
    order = np.argsort(fsim, axis=1)
    return (np.take_along_axis(sim, order[:, :, None], axis=1),
            np.take_along_axis(fsim, order, axis=1))


@dataclass(frozen=True)
class FitConfig:
    """Fit settings, checked on construction.

    ``m`` is an integer >= 1; ``k=None`` sweeps depths around ceil(log_m n),
    and an integer ``k`` in [1, max_depth(m)] pins it; ``restarts`` is an
    integer >= 1 and ``seed`` an integer >= 0.  A numpy integer is kept as
    the ``int`` it holds; a bad field raises ``DomainError``.
    """

    m: int
    k: int | None = None
    restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name), low))
        if self.k is not None:
            object.__setattr__(self, "k", _check_integer("depth k", self.k, 1))
            if self.k > max_depth(self.m):
                raise DomainError(
                    f"depth k={self.k} outside [1, {max_depth(self.m)}] for m={self.m}")

    def depth_candidates(self, n: int) -> tuple[int, ...]:
        """Depths to try: the given k, or a +/-2 window around ceil(log_m n).
        n must be an integer >= 2 either way."""
        n = _check_integer("node count n", n, 2)
        if self.k is not None:
            return (self.k,)
        cap = max_depth(self.m)
        center = math.ceil(math.log(n) / math.log(self.m)) if self.m > 1 else 1
        ks = [k for k in range(center - 2, center + 3) if 1 <= k <= cap]
        if not ks:
            ks = [min(cap, max(1, center))]
        return tuple(ks)


class LaneRecord(NamedTuple):
    """One (depth, restart) search of a fit: the best objective it reached,
    its evaluation count, and whether it converged before a budget ran out."""

    k: int
    restart: int
    objective: float
    nfev: int
    converged: bool


@dataclass(frozen=True)
class FitResult:
    """Winning measure plus enough bookkeeping to audit the search.

    ``trace`` holds one :class:`LaneRecord` per (depth, restart), in
    (k, restart) order.
    """

    measure: GeneratingMeasure
    objective: float
    ratios: dict[str, float]
    k: int
    restart: int
    best_by_depth: dict[int, float]
    restarts: int
    trace: tuple[LaneRecord, ...]


def _observed(target: FeatureVector) -> dict[str, float]:
    """The target's counts by key as floats, each checked to be finite and positive."""
    counts = _check_reals("target counts", list(target.as_dict().values()), None, DomainError)
    observed = dict(zip(target.keys(), counts.tolist()))
    for key, count in observed.items():
        if not count > 0.0:
            raise ZeroTargetFeatureError(
                f"target feature {key} is {target.value(key)}; fitted features must be positive")
    if not observed:
        raise DomainError("no target features to fit")
    return observed


def _scorer(target: FeatureVector, n: int):
    """The objective as one batched function of stacked measures:
    ``score(probs, lengths, depths)`` takes (L, m, m) matrices, (L, m)
    lengths and (L, 1) depths and returns the (L,) objectives.

    The target is checked, and each key's log placements computed, once
    here, so a bad target raises its typed error before any evaluation.  A
    measure with an expectation that is not finite scores +inf.
    """
    observed = _observed(target)
    features = [parse_feature(key) for key in observed]
    log_placements = np.array([_log_placements(kind, order, n) for kind, order in features])
    counts = np.array(list(observed.values()))

    def score(probs: np.ndarray, lengths: np.ndarray, depths: np.ndarray) -> np.ndarray:
        # exp overflowing to inf is caught below.
        with np.errstate(over="ignore"):
            expected = np.exp(_log_expected(  # each lane is one level
                log_placements, depths, _level_bases(probs, lengths, features)[..., None]))
            loss = (np.abs(counts - expected) / counts).sum(axis=1)
        return np.where(np.isfinite(expected).all(axis=1), loss, np.inf)

    return score


def objective(measure: GeneratingMeasure, n: int, target: FeatureVector) -> float:
    """Relative moment mismatch summed over the target's keys; +inf if an
    expectation blows up."""
    score = _scorer(target, n)
    return float(score(measure.probs[None], measure.lengths[None],
                       np.array([[measure.k]]))[0])


def _lane_objective(target: FeatureVector, n: int, m: int, depths):
    """The objective of every lane as one batched function of the search
    coordinates: ``fun(points, lanes)`` decodes each point to a measure with
    m categories at depth ``depths[lane]`` and returns its objective."""
    score = _scorer(target, n)
    depths = np.asarray(depths, dtype=float)[:, None]

    def fun(points: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return score(*_decode_params(points, m), depths[lanes])

    return fun


@functools.lru_cache(maxsize=None)
def _symmetric_slots(m: int) -> np.ndarray:
    """For each cell of an m x m matrix, the index of its upper-triangle
    entry in ``np.triu_indices(m)`` order, built once per m.

    ``values[_symmetric_slots(m)]`` is the symmetric matrix with those
    upper-triangle values.  The array is read-only because every caller
    shares it.
    """
    iu = np.triu_indices(m)
    slots = np.empty((m, m), dtype=np.intp)
    slots[iu] = slots.T[iu] = np.arange(iu[0].size)
    slots.setflags(write=False)
    return slots


def random_init(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random starting point: uniform probabilities, flat-Dirichlet lengths."""
    probs = rng.random(m * (m + 1) // 2)[_symmetric_slots(m)]
    raw = rng.standard_exponential(m)
    lengths = raw / raw.sum()
    return probs, lengths


def _encode_params(probs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Map (probs, lengths) to the unconstrained search space.

    Upper-triangle probabilities go through the logit; lengths become
    log-ratios against the first interval (softmax with a pinned first
    coordinate), so every search iterate decodes to a feasible measure.
    """
    m = lengths.shape[0]
    p = np.clip(probs[np.triu_indices(m)], _LOGIT_CLIP, 1.0 - _LOGIT_CLIP)
    x_p = np.log(p / (1.0 - p))
    x_l = np.log(lengths[1:] / lengths[0]) if m > 1 else np.zeros(0)
    return np.concatenate([x_p, x_l])


def _decode_params(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(probs, lengths) of the search point x, or of each row of x."""
    n_tri = m * (m + 1) // 2
    # exp overflows to inf for very negative coordinates; 1 / (1 + inf) = 0
    # is the intended limit, so the warning is noise.
    with np.errstate(over="ignore"):
        vals = 1.0 / (1.0 + np.exp(-x[..., :n_tri]))
    probs = vals[..., _symmetric_slots(m)]
    if m == 1:
        return probs, np.ones(x.shape[:-1] + (1,))
    raw = np.zeros(x.shape[:-1] + (m,))
    raw[..., 1:] = x[..., n_tri:]
    raw = np.exp(raw - raw.max(axis=-1, keepdims=True))
    # A length that underflows to zero would fail validation and abort
    # the whole fit; the floor changes no value that did not underflow.
    return probs, np.maximum(raw / raw.sum(axis=-1, keepdims=True), _TINY)


def _measure_at(x: np.ndarray, m: int, k: int) -> GeneratingMeasure:
    """The validated measure at the search point x."""
    probs, lengths = _decode_params(x, m)
    return make_measure(lengths, probs, k)


def local_optimize(
    probs: np.ndarray,
    lengths: np.ndarray,
    k: int,
    n: int,
    target: FeatureVector,
) -> tuple[GeneratingMeasure, float]:
    """Simplex descent from one starting point: the fit's lane search with
    one lane.

    Returns a validated measure and its :func:`objective`.
    """
    m = int(lengths.shape[0])
    x0 = _encode_params(np.asarray(probs, dtype=float), np.asarray(lengths, dtype=float))
    lane = minimize_lanes(_lane_objective(target, n, m, [k]), x0[None])
    measure = _measure_at(lane.x[0], m, k)
    return measure, objective(measure, n, target)


def fit(target: FeatureVector, n: int, config: FitConfig) -> FitResult:
    """Random-restart moment matching over the configured depths.

    Every (depth, restart) search runs as one lane of :func:`minimize_lanes`.
    Ties break toward smaller depth, then lower restart index, so the result
    is exactly reproducible from (target, n, config).  The result's
    objective is the winning lane's own value; its ratios come from
    :func:`expected_feature_vector` at the winner's measure.
    """
    depths = config.depth_candidates(n)
    lanes = list(itertools.product(depths, range(config.restarts)))
    fun = _lane_objective(target, n, config.m, [k for k, _ in lanes])
    starts = [
        _encode_params(*random_init(config.m, np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(k, r)))))
        for k, r in lanes]
    search = minimize_lanes(fun, starts)
    trace = tuple(
        LaneRecord(k, r, float(obj), int(nfev), bool(ok))
        for (k, r), obj, nfev, ok in zip(lanes, search.fun, search.nfev, search.success))
    best = int(np.argmin(search.fun))  # the first minimum: lowest k, then r
    k, r = lanes[best]
    measure = _measure_at(search.x[best], config.m, k)
    expected = expected_feature_vector(measure, n, target.keys())
    return FitResult(
        measure=measure, objective=trace[best].objective,
        ratios={key: expected.value(key) / observed
                for key, observed in _observed(target).items()},
        k=k, restart=r,
        best_by_depth={d: min(row.objective for row in trace if row.k == d) for d in depths},
        restarts=config.restarts, trace=trace,
    )
