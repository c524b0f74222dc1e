"""Moment matching: recover a generating measure from observed counts.

The objective is the weighted sum of relative errors between the observed
feature counts and the measure's expectations.  It is non-convex with many
local minima, so the fit runs a derivative-free simplex search from many
random starting points — over a small range of candidate depths when none
is given — and keeps the best.  Every restart draws its start from its own
RNG stream keyed by (seed, depth, restart), so results are reproducible and
adding restarts never discards earlier ones.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, ZeroTargetFeatureError
from .measure import (
    ENCODING_BITS,
    FeatureVector,
    GeneratingMeasure,
    expected_d_stars,
    expected_edges,
    expected_t_cliques,
    parse_feature,
    validate_measure,
)

_LOGIT_CLIP = 1e-12

# Nelder-Mead stopping tolerances and the iteration cap of one local search.
_FATOL = 1e-10
_XATOL = 1e-6
_MAX_ITERATIONS = 2000


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.

    Deferring the import keeps scipy out of every process that does not fit.
    ``local_optimize`` calls this module attribute by name, so tests and
    tracers can rebind ``mfng.fit.minimize``; that seam is why this wrapper
    exists instead of a local import inside ``local_optimize``.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def max_depth(m: int) -> int:
    """Largest depth whose category tuples fit the 62-bit encoding."""
    if m < 1:
        raise DomainError(f"category count must be positive, got {m}")
    if m == 1:
        return ENCODING_BITS
    k = int(ENCODING_BITS / math.log2(m))
    while m ** (k + 1) <= 2 ** ENCODING_BITS:
        k += 1
    while m ** k > 2 ** ENCODING_BITS:
        k -= 1
    return k


@dataclass(frozen=True)
class FitConfig:
    """Fit settings.

    ``k=None`` sweeps depths around ceil(log_m n); a given ``k`` pins it.
    ``weights`` maps feature keys to nonnegative weights (missing keys get
    1.0).
    """

    m: int
    k: int | None = None
    restarts: int = 200
    weights: Mapping[str, float] | None = None
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


def _expected_feature(measure: GeneratingMeasure, n: int, key: str) -> float:
    kind, order = parse_feature(key)
    if kind == "edges":
        return expected_edges(measure, n)
    if kind == "star":
        return expected_d_stars(measure, n, order)
    return expected_t_cliques(measure, n, order)


def _target_items(
    target: FeatureVector, weights: Mapping[str, float] | None
) -> list[tuple[str, float, float]]:
    """(key, observed, weight) triples for every positively weighted feature."""
    items = []
    for key, observed in target.items():
        w = 1.0 if weights is None else float(weights.get(key, 1.0))
        if w < 0.0:
            raise DomainError(f"feature weight for {key} must be nonnegative, got {w}")
        if w == 0.0:
            continue
        if not observed > 0.0:
            raise ZeroTargetFeatureError(
                f"target feature {key} is {observed}; positively weighted "
                "features must be positive")
        items.append((key, float(observed), w))
    if not items:
        raise DomainError("no positively weighted target features to fit")
    return items


def objective(
    measure: GeneratingMeasure,
    n: int,
    target: FeatureVector,
    weights: Mapping[str, float] | None = None,
) -> float:
    """Weighted relative moment mismatch; +inf if an expectation blows up."""
    return _loss(measure, n, _target_items(target, weights))


def _loss(
    measure: GeneratingMeasure, n: int, items: Sequence[tuple[str, float, float]]
) -> float:
    """The objective over pre-validated (key, observed, weight) triples."""
    total = 0.0
    for key, observed, w in items:
        expected = _expected_feature(measure, n, key)
        if not math.isfinite(expected):
            return math.inf
        total += w * abs(observed - expected) / observed
    return total


@functools.lru_cache(maxsize=None)
def _triu(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle indices of an m x m matrix, built once per m.

    The objective decodes a parameter vector on every evaluation; the
    arrays are read-only because every caller shares them.
    """
    iu = np.triu_indices(m)
    for a in iu:
        a.setflags(write=False)
    return iu


def random_init(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random starting point: uniform probabilities, flat-Dirichlet lengths."""
    tri = rng.random(m * (m + 1) // 2)
    probs = np.zeros((m, m))
    iu = _triu(m)
    probs[iu] = tri
    probs.T[iu] = tri
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
    iu = _triu(m)
    p = np.clip(probs[iu], _LOGIT_CLIP, 1.0 - _LOGIT_CLIP)
    x_p = np.log(p / (1.0 - p))
    x_l = np.log(lengths[1:] / lengths[0]) if m > 1 else np.zeros(0)
    return np.concatenate([x_p, x_l])


def _decode_params(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    n_tri = m * (m + 1) // 2
    probs = np.zeros((m, m))
    iu = _triu(m)
    # exp overflows to inf for very negative coordinates; 1 / (1 + inf) = 0
    # is the intended limit, so the warning is noise.
    with np.errstate(over="ignore"):
        vals = 1.0 / (1.0 + np.exp(-x[:n_tri]))
    probs[iu] = vals
    probs.T[iu] = vals
    if m > 1:
        raw = np.concatenate([[0.0], x[n_tri:]])
        raw = np.exp(raw - raw.max())
        # A length that underflows to zero would fail validation and abort
        # the whole fit; the floor changes no value that did not underflow.
        lengths = np.maximum(raw / raw.sum(), np.finfo(float).tiny)
    else:
        lengths = np.ones(1)
    return probs, lengths


def local_optimize(
    probs: np.ndarray,
    lengths: np.ndarray,
    k: int,
    n: int,
    target: FeatureVector,
    weights: Mapping[str, float] | None = None,
) -> tuple[GeneratingMeasure, float]:
    """Simplex descent from one starting point.

    Returns a validated measure and its recomputed objective; never worse
    than the starting point's objective.
    """
    m = int(lengths.shape[0])
    items = _target_items(target, weights)

    def loss(x: np.ndarray) -> float:
        p, l = _decode_params(x, m)
        return _loss(GeneratingMeasure(m=m, k=k, lengths=l, probs=p), n, items)

    x0 = _encode_params(np.asarray(probs, dtype=float), np.asarray(lengths, dtype=float))
    result = minimize(
        loss, x0, method="Nelder-Mead",
        options={"fatol": _FATOL, "xatol": _XATOL,
                 "maxiter": _MAX_ITERATIONS, "maxfev": _MAX_ITERATIONS * 2},
    )
    candidates = [x0, result.x]
    best_measure, best_obj = None, math.inf
    for x in candidates:
        p, l = _decode_params(x, m)
        meas = validate_measure(GeneratingMeasure(m=m, k=k, lengths=l, probs=p))
        obj = _loss(meas, n, items)
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
    items = _target_items(target, config.weights)  # validates up front
    depths = config.depth_candidates(n)
    best = None  # (objective, k, restart, measure)
    best_by_depth: dict[int, float] = {}
    for k in depths:
        depth_best = math.inf
        for r in range(config.restarts):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(k, r)))
            probs0, lengths0 = random_init(config.m, rng)
            measure, obj = local_optimize(
                probs0, lengths0, k, n, target, weights=config.weights)
            depth_best = min(depth_best, obj)
            if best is None or obj < best[0]:
                best = (obj, k, r, measure)
        best_by_depth[k] = depth_best
    obj, k, r, measure = best
    ratios = {key: _expected_feature(measure, n, key) / observed
              for key, observed, _ in items}
    return FitResult(
        measure=measure, objective=obj, ratios=ratios, k=k, restart=r,
        best_by_depth=best_by_depth, restarts=config.restarts,
    )
