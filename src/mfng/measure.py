"""Generating measures and closed-form expectations of subgraph counts.

A generating measure is the recursive link model: ``m`` categories with
interval lengths ``lengths`` (summing to one), a symmetric link-probability
matrix ``probs``, and a recursion depth ``k``.  Every node independently
receives one category per level, and a pair of nodes is linked with the
product of the per-level probabilities of their category pair.

Because the levels are independent, the probability that any fixed set of
node pairs is fully present is the product over levels of that level's
probability of the pattern.  All expectations below are built from that
fact: per-level pattern survival factors, multiplied over the levels, times
the number of ways to place the pattern.  Binomial placement counts are
kept in log space so that the astronomically large counts of, say, 4-stars
on 10^5 nodes never overflow.

Every closed form reads its model as (level matrices, lengths, depth): a
measure is its one matrix taken k times, and a :class:`NoiseSchedule` its k
level matrices taken once each.  ``_level_survivals`` is that one reader,
``_level_bases`` the only code that computes per-level survivals, for a
stack of lanes, and ``_log_expected`` the one log-space step, log
placements + depth * (sum over levels of log base).  The public closed
forms read one model, and the fit's objective evaluates many measures, one
level each, in one call.  ``edge_moments`` of a schedule of k copies of a
measure's matrix is the fast sampler's edge target.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import string
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CliqueSizeError,
    DepthOverflowError,
    DomainError,
    LengthVectorError,
    MeasureValidationError,
    NonSymmetricError,
    ProbabilityRangeError,
)

# Lengths within this of summing to 1 are renormalized; worse is an error.
LENGTH_SUM_TOLERANCE = 1e-9

# Category tuples are packed base-m into one signed 64-bit word, so the
# depth is capped by m**k <= 2**62.
ENCODING_BITS = 62

# Largest clique order for which the m**t survival enumeration is allowed.
MAX_CLIQUE_ORDER = 8

DEFAULT_FEATURES = ("edges", "S2", "S3", "S4", "C3", "C4")

_FEATURE_RE = re.compile(r"^(S|C)([0-9]+)$")

# Feature kinds in canonical order, as parse_feature names them.
_KINDS = ("edges", "star", "clique")


@dataclass(frozen=True)
class GeneratingMeasure:
    """Parameters of the recursive link model, valid by construction.

    Construction checks every field and keeps read-only float copies of the
    arrays: ``lengths`` must be a flat vector of m finite, positive entries
    summing to one within ``LENGTH_SUM_TOLERANCE``; ``probs`` an exactly
    symmetric m x m matrix in [0, 1]; and ``k`` an integer in
    [1, max_depth(m)].  A bad field raises a typed
    ``MeasureValidationError`` (``DomainError`` for a depth below one).
    :func:`make_measure` also renormalises the lengths.
    """

    m: int
    k: int
    lengths: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        lengths = _check_lengths(self.lengths)
        if self.m != lengths.shape[0]:
            raise LengthVectorError(
                f"m={self.m!r} but lengths has {lengths.shape[0]} entries")
        m = lengths.shape[0]
        probs = _check_probs(self.probs, m)
        k = _check_depth(self.k, m)
        lengths.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class NoiseSchedule:
    """One link-probability matrix per recursion level over one length vector.

    ``offsets[r]`` is the draw that perturbed level r's matrix (see
    ``sampler.make_noise_schedule``; 0 for a level left as the measure's).
    Construction checks ``lengths`` and every matrix as
    :class:`GeneratingMeasure` does, keeps float copies, and raises
    ``DomainError`` when there is no level.  The closed forms read a
    schedule as its level matrices, each taken once.
    """

    level_matrices: tuple[np.ndarray, ...]
    offsets: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        lengths = _check_lengths(self.lengths)
        matrices = tuple(_check_probs(p, lengths.size) for p in self.level_matrices)
        if not matrices:
            raise DomainError("need at least one level matrix")
        object.__setattr__(self, "level_matrices", matrices)
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class EdgeMoments:
    """Mean, variance, and standard deviation of the edge count."""

    mean: float
    variance: float
    std: float


class CliqueNumberEstimate(NamedTuple):
    """First-moment clique-number estimate.

    ``capped`` is set when the scan stopped at the enumeration cap while the
    expected count there was still at least one, i.e. the true crossing
    point may lie beyond the largest clique order we evaluate.
    """

    t_star: int
    capped: bool


@dataclass(frozen=True)
class FeatureVector:
    """Subgraph-count features as one ordered map from key to value.

    Keys are stored in canonical spelling and order: "edges", then the
    d-star counts "S<d>" by d, then the t-clique counts "C<t>" by t.  Every
    key is checked by :func:`parse_feature` once, on construction, and a
    key given twice (say "S2" and "S02") keeps its last value.  Values may
    be exact integers (graph counts) or floats (expectations).
    """

    data: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        ranked = {}
        for key, value in self.data.items():
            kind, order = parse_feature(key)
            ranked[(_KINDS.index(kind), order)] = (_feature_key(kind, order), value)
        object.__setattr__(self, "data", dict(ranked[rank] for rank in sorted(ranked)))

    def keys(self) -> tuple[str, ...]:
        return tuple(self.data)

    def value(self, key: str):
        return self.data[key]

    def items(self):
        return list(self.data.items())

    def as_dict(self) -> dict:
        return dict(self.data)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, float]) -> "FeatureVector":
        return cls(mapping)


def parse_feature(key: str) -> tuple[str, int]:
    """Split a feature key into its kind and order.

    "edges" -> ("edges", 0); "S3" -> ("star", 3); "C4" -> ("clique", 4).
    """
    if key == "edges":
        return ("edges", 0)
    match = _FEATURE_RE.match(key)
    if match:
        order = int(match.group(2))
        if match.group(1) == "S" and order >= 1:
            return ("star", order)
        if match.group(1) == "C" and order >= 2:
            return ("clique", order)
    raise DomainError(f"unknown feature key: {key!r}")


def make_measure(lengths, probs, k: int) -> GeneratingMeasure:
    """Build a valid measure from raw arrays.

    Lengths whose sum is within ``LENGTH_SUM_TOLERANCE`` of one are
    renormalised once (divided by their sum); every other check is the
    :class:`GeneratingMeasure` constructor's, so every bad input raises a
    typed ``MeasureValidationError``.  The matrix must be exactly symmetric.
    """
    lengths = _check_lengths(lengths)
    if lengths.sum() != 1.0:
        lengths = lengths / lengths.sum()
    return GeneratingMeasure(m=lengths.shape[0], k=k, lengths=lengths, probs=probs)


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


def _as_floats(values, error: type[MeasureValidationError], what: str) -> np.ndarray:
    """values as a new float array; ragged, non-numeric or out-of-float-range
    input raises error."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be a rectangular array of numbers ({exc})") from None


def _check_lengths(lengths) -> np.ndarray:
    """Interval lengths as floats, checked to be a flat vector of finite,
    strictly positive entries summing to 1 within ``LENGTH_SUM_TOLERANCE``."""
    lengths = _as_floats(lengths, LengthVectorError, "lengths")
    if lengths.ndim != 1:
        raise LengthVectorError(
            f"lengths must be a flat vector, got shape {lengths.shape}")
    if not np.all(np.isfinite(lengths)) or np.any(lengths <= 0.0):
        raise LengthVectorError("interval lengths must be finite and strictly positive")
    total = float(lengths.sum())
    if abs(total - 1.0) > LENGTH_SUM_TOLERANCE:
        raise LengthVectorError(
            f"interval lengths must sum to 1 (got {total!r})")
    return lengths


def _check_probs(probs, m: int) -> np.ndarray:
    """A link-probability matrix as floats, checked to be m x m, finite,
    within [0, 1] and exactly symmetric."""
    probs = _as_floats(probs, ProbabilityRangeError, "probs")
    if probs.shape != (m, m):
        raise ProbabilityRangeError(
            f"probs must be a {m}x{m} matrix, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ProbabilityRangeError("link probabilities must be finite")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ProbabilityRangeError("link probabilities must lie in [0, 1]")
    if not np.array_equal(probs, probs.T):
        raise NonSymmetricError("link-probability matrix must be exactly symmetric")
    return probs


def _check_integer(name: str, value, low: int) -> None:
    """Raise DomainError unless value is an integer (not a bool) >= low."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_depth(k, m: int) -> int:
    """k as an int, checked to be an integer in [1, max_depth(m)]."""
    _check_integer("recursion depth k", k, 1)
    if k > max_depth(m):
        raise DepthOverflowError(
            f"m**k = {m}**{k} exceeds the {ENCODING_BITS}-bit category encoding")
    return int(k)


# ---------------------------------------------------------------------------
# per-level survival factors
# ---------------------------------------------------------------------------

def edge_survival_factor(measure: GeneratingMeasure) -> float:
    """Per-level probability that one node pair survives: sum p_ij l_i l_j."""
    return _level_survivals(measure, [("edges", 0)])[0].item()


def _level_survivals(model: GeneratingMeasure | NoiseSchedule,
                     features: Sequence[tuple[str, int]]) -> tuple[np.ndarray, int]:
    """The one reader of a model: each feature's survival at each of its
    levels, a C-ordered (features, levels) array, and the depth every level
    is taken, a measure's k for its one matrix and 1 for each of a
    schedule's.  Each row's level sum then takes the same steps whatever
    other features are asked for."""
    matrices, depth = ((model.level_matrices, 1) if isinstance(model, NoiseSchedule)
                       else ((model.probs,), model.k))
    lengths = np.broadcast_to(model.lengths, (len(matrices), model.lengths.size))
    return np.ascontiguousarray(_level_bases(np.stack(matrices), lengths, features).T), depth


def _level_bases(probs: np.ndarray, lengths: np.ndarray,
                 features: Sequence[tuple[str, int]]) -> np.ndarray:
    """Per-level survival of each ``(kind, order)`` feature, as
    :func:`parse_feature` names them, for a stack of measures.

    ``probs`` is (L, m, m) and ``lengths`` (L, m); the result is
    (L, len(features)).  A d-star survives with sum_i l_i (P l)_i ** d:
    given the center's category i, each leaf links to it independently with
    probability (P l)_i.  An edge is the 1-star and the 2-clique.  The
    private kind ``("wedge_excess", 2)`` is the wedge survival less the
    squared pair survival s, summed from squares as
    sum_i l_i ((P l)_i - s) ** 2 so that it does not cancel.  A t-clique
    survives with the sum over category tuples of the tuple's mass times
    every pairwise link probability: one einsum over t length vectors and
    C(t, 2) copies of the matrix, so no m**t grid is materialized.  Each
    lane's values depend on that lane alone, not on how many lanes are
    stacked.
    """
    row = (probs * lengths[:, None, :]).sum(axis=2)
    columns = []
    for kind, order in features:
        if kind == "clique" and order > 2:
            columns.append(np.einsum(_clique_spec(order), *[lengths] * order,
                                     *[probs] * math.comb(order, 2)))
        elif kind == "wedge_excess":
            pair = (lengths * row).sum(axis=1)
            # s**2 * (1 - sum l) is zero but for the rounding of the lengths;
            # with it the sum is w - s**2 exactly, however close w is to s**2
            gap = np.array([math.fsum([1.0, *(-lane).tolist()]) for lane in lengths])
            columns.append((lengths * (row - pair[:, None]) ** 2).sum(axis=1) + pair ** 2 * gap)
        else:
            d = order if kind == "star" else 1  # an edge is a 2-clique is a 1-star
            columns.append((lengths * row ** d).sum(axis=1))
    return np.stack(columns, axis=-1)


@functools.lru_cache(maxsize=None)
def _clique_spec(t: int) -> str:
    """The lane einsum spec of a t-clique survival: a lane index, then one
    operand per node and one per node pair, e.g. "za,zb,zc,zab,zac,zbc->z"
    for t = 3."""
    nodes = string.ascii_lowercase[:t]
    pairs = [a + b for a, b in itertools.combinations(nodes, 2)]
    return ",".join("z" + operand for operand in [*nodes, *pairs]) + "->z"


def _log_comb(n: int, r: int) -> float:
    """log of the binomial coefficient; -inf when the count is zero.

    math.comb is exact, and taking the log of the (possibly huge) integer
    keeps the relative error at one ulp, which matters when expectations
    are compared against direct enumeration at tight tolerances.
    """
    if r < 0 or r > n:
        return float("-inf")
    return math.log(math.comb(n, r))


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def _log_placements(kind: str, order: int, n: int) -> float:
    """log of the number of ways to place one feature of this kind and order
    on n nodes; an order out of range for n, or a clique order beyond
    ``MAX_CLIQUE_ORDER``, raises a typed error."""
    if kind == "edges":
        if n < 2:
            raise DomainError(f"expected_edges needs n >= 2, got {n}")
        return _log_comb(n, 2)
    if kind == "star":
        if not 1 <= order <= n - 1:
            raise DomainError(
                f"star order d must satisfy 1 <= d <= n-1, got d={order}, n={n}")
        return math.log(n) + _log_comb(n - 1, order)
    if order > MAX_CLIQUE_ORDER:
        raise CliqueSizeError(
            f"clique order {order} exceeds the enumeration cap of {MAX_CLIQUE_ORDER}")
    if not 2 <= order <= n:
        raise DomainError(
            f"clique order t must satisfy 2 <= t <= n, got t={order}, n={n}")
    return _log_comb(n, order)


def _log_expected(log_placements, depths, bases: np.ndarray) -> np.ndarray:
    """log placements + depth * (sum of log base over the last axis, the
    levels): the log of every expectation.  A base of zero gives -inf, an
    expectation of zero."""
    with np.errstate(divide="ignore"):
        return log_placements + depths * np.log(bases).sum(axis=-1)


def _expected(model: GeneratingMeasure | NoiseSchedule, n: int,
              features: Sequence[tuple[str, int]]) -> np.ndarray:
    """Expected count of each ``(kind, order)`` feature on n nodes.

    A count too large for a float raises ``OverflowError`` naming the
    feature and n.
    """
    log_placements = np.array([_log_placements(kind, order, n) for kind, order in features])
    bases, depth = _level_survivals(model, features)
    with np.errstate(over="ignore"):
        values = np.exp(_log_expected(log_placements, depth, bases))
    for feature, value in zip(features, values):
        if not math.isfinite(value):
            raise OverflowError(
                f"expected {_feature_key(*feature)} count on n={n} nodes overflows a float")
    return values


def _feature_key(kind: str, order: int) -> str:
    """The canonical key of a parsed feature: "edges", "S<d>" or "C<t>"."""
    return "edges" if kind == "edges" else f"{kind[0].upper()}{order}"


def expected_edges(measure: GeneratingMeasure, n: int) -> float:
    """Expected edge count on n nodes: C(n,2) * s**k, evaluated in log space."""
    return float(_expected(measure, n, [("edges", 0)])[0])


def expected_d_stars(measure: GeneratingMeasure, n: int, d: int) -> float:
    """Expected count of d-stars (a center plus an unordered set of d
    distinct leaves, all linked to the center): n * C(n-1, d) * base**k.
    """
    return float(_expected(measure, n, [("star", d)])[0])


def expected_t_cliques(measure: GeneratingMeasure, n: int, t: int) -> float:
    """Expected count of t-cliques: C(n, t) * clique survival ** k."""
    return float(_expected(measure, n, [("clique", t)])[0])


def _edge_moments(model: GeneratingMeasure | NoiseSchedule, n: int) -> EdgeMoments:
    """Edge-count moments on n nodes.  Every level's pair survival s_r and
    wedge excess d_r = w_r - s_r**2 (w_r the wedge survival) come from
    :func:`_level_survivals`, and their logs are summed, each level taken
    its depth times.

    With S = prod s_r and W = prod w_r, a pair covaries with itself and with
    the n(n-1)(n-2) ordered pairs that share one node with it, so the
    variance is C(n,2) * S * (1 - S) + n(n-1)(n-2) * (W - S**2).  Neither
    term is formed as a difference: 1 - S = -expm1(log S), and
    W - S**2 = S**2 * expm1(sum_r log1p(d_r / s_r**2)) with d_r summed from
    squares.  A pair that cannot survive (S = 0) gives moments (0, 0, 0).
    """
    (pair, excess), depth = _level_survivals(model, (("edges", 0), ("wedge_excess", 2)))
    if not np.all(pair > 0.0):
        return EdgeMoments(mean=0.0, variance=0.0, std=0.0)
    log_s = float(_log_expected(0.0, depth, pair))
    log_spread = depth * float(np.log1p(excess / pair / pair).sum())
    shared = 0.0
    try:
        mean = math.exp(_log_comb(n, 2) + log_s)
        if n >= 3 and log_spread > 0.0:
            # log expm1(x) as x + log(-expm1(-x)), finite where expm1(x) is not
            shared = math.exp(math.log(n * (n - 1) * (n - 2)) + 2.0 * log_s + log_spread
                              + math.log(-math.expm1(-log_spread)))
    except OverflowError:
        raise OverflowError(f"edge-count moments on n={n} nodes overflow a float") from None
    # log S above zero is rounding in the bases: S is a probability
    variance = mean * -math.expm1(min(log_s, 0.0)) + shared
    return EdgeMoments(mean=mean, variance=variance, std=math.sqrt(variance))


def edge_moments(model: GeneratingMeasure | NoiseSchedule, n: int) -> EdgeMoments:
    """Edge-count mean and variance of a measure or a noise schedule (see
    :func:`_edge_moments`)."""
    if n < 2:
        raise DomainError(f"edge_moments needs n >= 2, got {n}")
    return _edge_moments(model, n)


def expected_degree_counts(measure: GeneratingMeasure, n: int) -> np.ndarray:
    """Expected number of nodes of each degree, for degrees 0 .. n-1.

    A node whose k-level category tuple holds category i c_i times links to
    every other node independently with probability
    q = prod_i (P l)_i ** c_i, so its degree is Binomial(n-1, q).  E[N_d] is
    therefore n times a mixture of binomial pmfs over the C(k+m-1, m-1)
    category compositions c, each weighted by its multinomial probability
    k! / prod c_i! * prod l_i ** c_i.  Every term is nonnegative and is
    evaluated in log space, so the counts are accurate for any n.

    log C(n-1, d) is a running sum of log(n-1-j) - log(j+1) up to the middle
    degree, mirrored above it, so both ends are exactly zero; a zero count
    times log q, or times log(1 - q), is taken as zero, so q = 0 and q = 1
    give exact point masses.
    """
    if n < 1:
        raise DomainError(f"expected_degree_counts needs n >= 1, got {n}")
    m, k = measure.m, measure.k
    comps = np.array([np.bincount(combo, minlength=m)
                      for combo in itertools.combinations_with_replacement(range(m), k)])
    log_factorials = np.array([math.lgamma(c + 1) for c in range(k + 1)])
    log_weights = (log_factorials[k] - log_factorials[comps].sum(axis=1)
                   + comps @ np.log(measure.lengths))
    link = np.prod((measure.probs @ measure.lengths) ** comps, axis=1)
    with np.errstate(divide="ignore"):  # log 0 = -inf is meant
        log_q, log_not_q = np.log(link), np.log1p(-link)
    j = np.arange(1, (n + 1) // 2)
    low = np.concatenate([[0.0], np.cumsum(np.log(n - j) - np.log(j))])
    log_binom = np.concatenate([low, low[:n - low.size][::-1]])
    d = np.arange(n)
    rest = n - 1 - d
    total = np.zeros(n)
    for log_w, lq, lnq in zip(log_weights, log_q, log_not_q):
        total += np.exp(log_binom + log_w + _times_log(d, lq) + _times_log(rest, lnq))
    return n * total


def _times_log(counts: np.ndarray, log_value: float) -> np.ndarray:
    """counts * log_value with every zero count giving exactly zero, so a
    log of zero (-inf) never meets a zero count."""
    return np.multiply(counts, log_value, out=np.zeros(counts.shape), where=counts > 0)


def estimate_clique_number(measure: GeneratingMeasure, n: int) -> CliqueNumberEstimate:
    """Largest clique order whose expected count is still at least one.

    Scans upward from t = 1 (the expected count of single nodes is n) and
    stops at the first order whose expectation drops below one, or at the
    enumeration cap min(n, MAX_CLIQUE_ORDER).
    """
    if n < 1:
        raise DomainError(f"estimate_clique_number needs n >= 1, got {n}")
    cap = min(n, MAX_CLIQUE_ORDER)
    t_star = 1
    for t in range(2, cap + 1):
        bases, depth = _level_survivals(measure, [("clique", t)])
        if _log_expected(_log_placements("clique", t, n), depth, bases)[0] < 0.0:
            break
        t_star = t
    capped = t_star == cap and cap < n
    return CliqueNumberEstimate(t_star=t_star, capped=capped)


def expected_feature_vector(model: GeneratingMeasure | NoiseSchedule, n: int,
                            features: Sequence[str] = DEFAULT_FEATURES) -> FeatureVector:
    """Evaluate several expectations of a measure or a noise schedule at
    once; each entry equals the entry asked for alone exactly, and for a
    measure the single-feature operation's value, since a feature's
    survival and placements do not depend on the other features asked for.
    No features give the empty vector."""
    keys = list(features)
    values = _expected(model, n, [parse_feature(key) for key in keys]) if keys else np.empty(0)
    return FeatureVector(dict(zip(keys, values.tolist())))
