"""Moment matching: recover a generating measure from observed counts.

The objective is the sum of relative errors between the observed feature
counts and the measure's expectations, over the keys of the target.  It is
non-convex with many local minima, so the fit runs a derivative-free
simplex search from many random starting points — over a small range of
candidate depths when none is given — and keeps the best.  Every restart
draws its start from its own RNG stream keyed by (seed, depth, restart), so
results are reproducible and adding restarts never discards earlier ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ZeroTargetFeatureError
from .measure import (
    FeatureVector,
    GeneratingMeasure,
    expected_d_stars,
    expected_edges,
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
    """Outcome of one :func:`minimize` run."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


class _BudgetSpent(Exception):
    """The evaluation budget ran out in the middle of a simplex step."""


def minimize(fun, x0) -> SimplexResult:
    """Nelder-Mead simplex search (Nelder & Mead, Comput. J. 1965) from x0.

    This is scipy's ``minimize(method="Nelder-Mead")`` at the fit's options
    (``fatol=_FATOL``, ``xatol=_XATOL``, ``maxiter=_MAX_ITERATIONS``,
    ``maxfev=2 * _MAX_ITERATIONS``), written out step for step: the same
    initial simplex, step arithmetic, sorts, convergence test and budget
    handling, so every iterate, ``nfev`` and ``success`` equal scipy's, and
    no scipy module is loaded.  ``success`` is false when either budget ran
    out.  ``fun`` is called with rows of the simplex and must not modify
    its argument.

    ``local_optimize`` calls this module attribute by name, so tests and
    tracers can rebind ``mfng.fit.minimize``.
    """
    maxiter, maxfev = _MAX_ITERATIONS, 2 * _MAX_ITERATIONS
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    N = len(x0)
    sim = np.tile(x0, (N + 1, 1))
    for j in range(N):
        sim[j + 1, j] = (1 + _NONZDELT) * x0[j] if x0[j] != 0 else _ZDELT
    fsim = np.full((N + 1,), np.inf)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x)

    try:
        for j in range(N + 1):
            fsim[j] = evaluate(sim[j])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy sorts twice here; ties may reorder
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= _XATOL
                    and np.abs(fsim[0] - fsim[1:]).max() <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + _RHO) * xbar - _RHO * sim[-1]
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                    fxc = evaluate(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # contract inside
                    xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                    fxcc = evaluate(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                        fsim[j] = evaluate(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)

    return SimplexResult(x=sim[0], fun=np.min(fsim), nfev=nfev,
                         success=nfev < maxfev and iterations < maxiter)


@dataclass(frozen=True)
class FitConfig:
    """Fit settings.

    ``k=None`` sweeps depths around ceil(log_m n); a given ``k`` pins it.
    """

    m: int
    k: int | None = None
    restarts: int = 200
    seed: int = 0

    def depth_candidates(self, n: int) -> tuple[int, ...]:
        """Depths to try: the given k, or a +/-2 window around ceil(log_m n)."""
        cap = max_depth(self.m)
        if self.k is not None:
            if not 1 <= self.k <= cap:
                raise DomainError(f"depth k={self.k} outside [1, {cap}] for m={self.m}")
            return (self.k,)
        if n < 2:
            raise DomainError(f"need n >= 2 to pick a depth, got {n}")
        center = math.ceil(math.log(n) / math.log(self.m)) if self.m > 1 else 1
        ks = [k for k in range(center - 2, center + 3) if 1 <= k <= cap]
        if not ks:
            ks = [min(cap, max(1, center))]
        return tuple(ks)


@dataclass(frozen=True)
class FitResult:
    """Winning measure plus enough bookkeeping to audit the search."""

    measure: GeneratingMeasure
    objective: float
    ratios: dict[str, float]
    k: int
    restart: int
    best_by_depth: dict[int, float]
    restarts: int


def _terms(target: FeatureVector, n: int) -> list[tuple[str, Callable, tuple, float]]:
    """The objective's terms, one per target feature: its key, its closed
    form, the arguments that follow the measure, and the observed count,
    checked to be positive.

    Each key is parsed once here, not once per evaluation.  The closed forms
    are this module's names for them, looked up when the terms are built, so
    that a tracer can time the fit's calls to them.
    """
    terms = []
    for key, observed in target.items():
        if not observed > 0.0:
            raise ZeroTargetFeatureError(
                f"target feature {key} is {observed}; fitted features must be positive")
        kind, order = parse_feature(key)
        if kind == "edges":
            closed_form, args = expected_edges, (n,)
        elif kind == "star":
            closed_form, args = expected_d_stars, (n, order)
        else:
            closed_form, args = expected_t_cliques, (n, order)
        terms.append((key, closed_form, args, float(observed)))
    if not terms:
        raise DomainError("no target features to fit")
    return terms


def objective(measure: GeneratingMeasure, n: int, target: FeatureVector) -> float:
    """Relative moment mismatch summed over the target's keys; +inf if an
    expectation blows up."""
    return _loss(measure, _terms(target, n))


def _loss(measure: GeneratingMeasure, terms: Sequence[tuple]) -> float:
    """The objective over the terms built by :func:`_terms`."""
    total = 0.0
    for _, closed_form, args, observed in terms:
        expected = closed_form(measure, *args)
        if not math.isfinite(expected):
            return math.inf
        total += abs(observed - expected) / observed
    return total


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
    n_tri = m * (m + 1) // 2
    # exp overflows to inf for very negative coordinates; 1 / (1 + inf) = 0
    # is the intended limit, so the warning is noise.
    with np.errstate(over="ignore"):
        vals = 1.0 / (1.0 + np.exp(-x[:n_tri]))
    probs = vals[_symmetric_slots(m)]
    if m > 1:
        raw = np.empty(m)
        raw[0] = 0.0
        raw[1:] = x[n_tri:]
        raw = np.exp(raw - raw.max())
        # A length that underflows to zero would fail validation and abort
        # the whole fit; the floor changes no value that did not underflow.
        lengths = np.maximum(raw / raw.sum(), _TINY)
    else:
        lengths = np.ones(1)
    return probs, lengths


def local_optimize(
    probs: np.ndarray,
    lengths: np.ndarray,
    k: int,
    n: int,
    target: FeatureVector,
) -> tuple[GeneratingMeasure, float]:
    """Simplex descent from one starting point.

    Returns a validated measure and its recomputed objective; never worse
    than the starting point's objective.
    """
    m = int(lengths.shape[0])
    terms = _terms(target, n)

    def loss(x: np.ndarray) -> float:
        p, l = _decode_params(x, m)
        return _loss(GeneratingMeasure(m=m, k=k, lengths=l, probs=p), terms)

    x0 = _encode_params(np.asarray(probs, dtype=float), np.asarray(lengths, dtype=float))
    result = minimize(loss, x0)
    best_measure, best_obj = None, math.inf
    for x in (x0, result.x):
        p, l = _decode_params(x, m)
        meas = make_measure(l, p, k)
        obj = _loss(meas, terms)
        if obj < best_obj:
            best_measure, best_obj = meas, obj
    return best_measure, best_obj


def fit(target: FeatureVector, n: int, config: FitConfig) -> FitResult:
    """Random-restart moment matching over the configured depths.

    Ties break toward smaller depth, then lower restart index, so the result
    is exactly reproducible from (target, n, config).
    """
    if config.restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {config.restarts}")
    if config.seed < 0:
        raise DomainError(f"seed must be nonnegative, got {config.seed}")
    terms = _terms(target, n)  # validates up front
    depths = config.depth_candidates(n)
    best = None  # (objective, k, restart, measure)
    best_by_depth: dict[int, float] = {}
    for k in depths:
        depth_best = math.inf
        for r in range(config.restarts):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(k, r)))
            probs0, lengths0 = random_init(config.m, rng)
            measure, obj = local_optimize(probs0, lengths0, k, n, target)
            depth_best = min(depth_best, obj)
            if best is None or obj < best[0]:
                best = (obj, k, r, measure)
        best_by_depth[k] = depth_best
    obj, k, r, measure = best
    ratios = {key: closed_form(measure, *args) / observed
              for key, closed_form, args, observed in terms}
    return FitResult(
        measure=measure, objective=obj, ratios=ratios, k=k, restart=r,
        best_by_depth=best_by_depth, restarts=config.restarts,
    )
