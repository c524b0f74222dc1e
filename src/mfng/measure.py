"""Generating measures and closed-form expectations of subgraph counts.

A generating measure is the recursive link model: ``m`` categories with
interval lengths ``lengths`` (summing to one), a symmetric link-probability
matrix ``probs``, and a recursion depth ``k``.  Every node independently
receives one category per level, and a pair of nodes is linked with the
product of the per-level probabilities of their category pair.

Because the levels are independent, the probability that any fixed set of
node pairs is fully present equals the depth-1 probability of that pattern
raised to the k-th power.  All expectations below are built from that fact:
a per-level pattern survival factor, taken to the k-th power, times the
number of ways to place the pattern.  Binomial placement counts are kept in
log space so that the astronomically large counts of, say, 4-stars on 10^5
nodes never overflow.
"""

from __future__ import annotations

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
    """Parameters of the recursive link model.

    Construction does not validate; call :func:`validate_measure` (or build
    through :func:`make_measure`) before handing a measure to anything that
    states "valid measure" as a precondition.
    """

    m: int
    k: int
    lengths: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        lengths = np.array(self.lengths, dtype=float)
        probs = np.array(self.probs, dtype=float)
        lengths.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "probs", probs)


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
            name = "edges" if kind == "edges" else f"{kind[0].upper()}{order}"
            ranked[(_KINDS.index(kind), order)] = (name, value)
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
    """Build and validate a measure from raw arrays."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1:
        raise LengthVectorError(
            f"lengths must be a flat vector, got shape {lengths.shape}")
    return validate_measure(
        GeneratingMeasure(m=int(lengths.shape[0]), k=int(k),
                          lengths=lengths, probs=probs)
    )


def _check_probs(probs, m: int) -> np.ndarray:
    """A link-probability matrix as floats, checked to be m x m, finite,
    within [0, 1] and exactly symmetric."""
    probs = np.asarray(probs, dtype=float)
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


def validate_measure(measure: GeneratingMeasure) -> GeneratingMeasure:
    """Check every structural invariant; return a validated measure.

    Interval lengths whose sum is within ``LENGTH_SUM_TOLERANCE`` of one are
    renormalized exactly once (division by their sum); a worse mismatch is
    rejected.  The probability matrix must be exactly symmetric.
    """
    m, k = measure.m, measure.k
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise DomainError(f"category count m must be a positive integer, got {m!r}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"recursion depth k must be a positive integer, got {k!r}")

    lengths = measure.lengths
    if lengths.ndim != 1 or lengths.shape[0] != m:
        raise LengthVectorError(
            f"lengths must be a flat vector of {m} entries, got shape {lengths.shape}")
    if not np.all(np.isfinite(lengths)) or np.any(lengths <= 0.0):
        raise LengthVectorError("interval lengths must be finite and strictly positive")
    total = float(lengths.sum())
    if abs(total - 1.0) > LENGTH_SUM_TOLERANCE:
        raise LengthVectorError(
            f"interval lengths must sum to 1 (got {total!r})")

    probs = _check_probs(measure.probs, m)

    if m ** k > 2 ** ENCODING_BITS:
        raise DepthOverflowError(
            f"m**k = {m}**{k} exceeds the {ENCODING_BITS}-bit category encoding")

    if total != 1.0:
        lengths = lengths / total
    return GeneratingMeasure(m=int(m), k=int(k), lengths=lengths, probs=probs)


# ---------------------------------------------------------------------------
# per-level survival factors
# ---------------------------------------------------------------------------

def edge_survival_factor(measure: GeneratingMeasure) -> float:
    """Per-level probability that one node pair survives: sum p_ij l_i l_j."""
    lengths = measure.lengths
    return float(lengths @ measure.probs @ lengths)


def _star_survival(probs: np.ndarray, lengths: np.ndarray, d: int) -> float:
    """Per-level survival of a d-star, factorized to O(m^2).

    Conditioning on the center's category i, each leaf independently
    survives with probability (P l)_i, so the d leaves contribute that row
    mix to the d-th power.
    """
    row = probs @ lengths
    return float(np.dot(lengths, row ** d))


def _clique_survival(probs: np.ndarray, lengths: np.ndarray, t: int) -> float:
    """Per-level survival of a t-clique: sum over category tuples of the
    product of all pairwise link probabilities, weighted by the tuple mass.

    One einsum over t length vectors and C(t, 2) copies of the matrix; no
    m**t grid is ever materialized.
    """
    if t == 2:  # edge_survival_factor's arithmetic, so C2 equals the edge count
        return float(lengths @ probs @ lengths)
    nodes = string.ascii_lowercase[:t]
    pairs = [a + b for a, b in itertools.combinations(nodes, 2)]
    spec = ",".join([*nodes, *pairs]) + "->"
    return float(np.einsum(spec, *[lengths] * t, *[probs] * len(pairs)))


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

def expected_edges(measure: GeneratingMeasure, n: int) -> float:
    """Expected edge count on n nodes: C(n,2) * s**k, evaluated in log space."""
    if n < 2:
        raise DomainError(f"expected_edges needs n >= 2, got {n}")
    s = edge_survival_factor(measure)
    if s <= 0.0:
        return 0.0
    return math.exp(_log_comb(n, 2) + measure.k * math.log(s))


def expected_d_stars(measure: GeneratingMeasure, n: int, d: int) -> float:
    """Expected count of d-stars (a center plus an unordered set of d
    distinct leaves, all linked to the center): n * C(n-1, d) * base**k.
    """
    if not 1 <= d <= n - 1:
        raise DomainError(f"star order d must satisfy 1 <= d <= n-1, got d={d}, n={n}")
    base = _star_survival(measure.probs, measure.lengths, d)
    if base <= 0.0:
        return 0.0
    return math.exp(math.log(n) + _log_comb(n - 1, d) + measure.k * math.log(base))


def expected_t_cliques(measure: GeneratingMeasure, n: int, t: int) -> float:
    """Expected count of t-cliques: C(n, t) * clique survival ** k."""
    if t > MAX_CLIQUE_ORDER:
        raise CliqueSizeError(
            f"clique order {t} exceeds the enumeration cap of {MAX_CLIQUE_ORDER}")
    if not 2 <= t <= n:
        raise DomainError(f"clique order t must satisfy 2 <= t <= n, got t={t}, n={n}")
    base = _clique_survival(measure.probs, measure.lengths, t)
    if base <= 0.0:
        return 0.0
    return math.exp(_log_comb(n, t) + measure.k * math.log(base))


def _edge_moments_from_logs(n: int, log_s: float, log_wedge: float) -> EdgeMoments:
    """Edge-count moments from the log survival of one pair and of a wedge
    over all levels (-inf for a wedge that cannot survive).

    The variance is mean*(1-mean) + 2*E[S_2] + C(n,2)*C(n-2,2)*s**(2k); the
    wedge and disjoint-pair terms vanish on their own below n = 3 and n = 4
    because the binomials are zero.  To dodge the catastrophic cancellation
    between -mean**2 and the disjoint-pair term, the two are combined
    analytically: C(n,2)*(C(n-2,2) - C(n,2)) = C(n,2)*(3 - 2n).
    """
    mean = math.exp(_log_comb(n, 2) + log_s)
    wedges = math.exp(math.log(n) + _log_comb(n - 1, 2) + log_wedge) if n >= 3 else 0.0
    cross = (3 - 2 * n) * math.exp(_log_comb(n, 2) + 2 * log_s)
    variance = mean + 2.0 * wedges + cross
    if variance < 0.0:
        if abs(variance) <= 1e-9 * mean * mean:
            variance = 0.0
        else:
            raise ArithmeticError(
                f"edge variance came out negative ({variance!r}) beyond rounding noise")
    return EdgeMoments(mean=mean, variance=variance, std=math.sqrt(variance))


def edge_moments(measure: GeneratingMeasure, n: int) -> EdgeMoments:
    """Edge-count mean and variance (see :func:`_edge_moments_from_logs`)."""
    if n < 2:
        raise DomainError(f"edge_moments needs n >= 2, got {n}")
    k = measure.k
    s = edge_survival_factor(measure)
    if s <= 0.0:
        return EdgeMoments(0.0, 0.0, 0.0)
    wedge = _star_survival(measure.probs, measure.lengths, 2)
    log_wedge = k * math.log(wedge) if wedge > 0.0 else -math.inf
    return _edge_moments_from_logs(n, k * math.log(s), log_wedge)


def expected_degree_counts(measure: GeneratingMeasure, n: int) -> np.ndarray:
    """Expected number of nodes of each degree, for degrees 0 .. n-1.

    A node whose k-level category tuple holds category i c_i times links to
    every other node independently with probability
    q = prod_i (P l)_i ** c_i, so its degree is Binomial(n-1, q).  E[N_d] is
    therefore n times a mixture of binomial pmfs over the C(k+m-1, m-1)
    category compositions c, each weighted by its multinomial probability
    k! / prod c_i! * prod l_i ** c_i.  Every term is nonnegative and is
    evaluated in log space, so the counts are accurate for any n.
    """
    if n < 1:
        raise DomainError(f"expected_degree_counts needs n >= 1, got {n}")
    # Imported here so that importing mfng (and every CLI command) needs no scipy.
    from scipy.special import gammaln, xlog1py, xlogy

    m, k = measure.m, measure.k
    comps = np.array([np.bincount(combo, minlength=m)
                      for combo in itertools.combinations_with_replacement(range(m), k)])
    log_weights = (gammaln(k + 1) - gammaln(comps + 1).sum(axis=1)
                   + xlogy(comps, measure.lengths).sum(axis=1))
    link = np.prod((measure.probs @ measure.lengths) ** comps, axis=1)
    d = np.arange(n)
    log_placements = math.log(n) + gammaln(n) - gammaln(d + 1) - gammaln(n - d)
    counts = np.zeros(n)
    for log_w, q in zip(log_weights, link):
        counts += np.exp(log_placements + log_w + xlogy(d, q) + xlog1py(n - 1 - d, -q))
    return counts


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
        base = _clique_survival(measure.probs, measure.lengths, t)
        if base <= 0.0:
            break
        log_expected = _log_comb(n, t) + measure.k * math.log(base)
        if log_expected >= 0.0:
            t_star = t
        else:
            break
    capped = t_star == cap and cap < n
    return CliqueNumberEstimate(t_star=t_star, capped=capped)


def _expected_feature(measure: GeneratingMeasure, n: int, key: str) -> float:
    kind, order = parse_feature(key)
    if kind == "edges":
        return expected_edges(measure, n)
    if kind == "star":
        return expected_d_stars(measure, n, order)
    return expected_t_cliques(measure, n, order)


def expected_feature_vector(
    measure: GeneratingMeasure, n: int, features: Sequence[str] = DEFAULT_FEATURES
) -> FeatureVector:
    """Evaluate several expectations at once; entries match the
    single-feature operations exactly (they are the same calls)."""
    return FeatureVector({key: _expected_feature(measure, n, key) for key in features})
