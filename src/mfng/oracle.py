"""Brute-force reference values for the closed-form moment engine.

Everything here is deliberately slow and independent: pattern probabilities
come from enumerating all category tuples with plain Python arithmetic, one
level at a time, and expectations multiply them by explicitly counted
placements.  A measure's levels share one matrix, so its pattern
probability is one level's to the k-th power; a noise schedule's is the
product over its level matrices.  Degree
counts unwind the star identity in exact rationals, and graph features are
counted by checking every subset of nodes.  The Monte Carlo helper
estimates the same quantities by sampling.  None of it reuses the formulas
it exists to check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, GraphTooLargeError, PatternTooLargeError
from .features import Graph, feature_vector
from .measure import (DEFAULT_FEATURES, FeatureVector, GeneratingMeasure, NoiseSchedule,
                      parse_feature)
from .sampler import naive_sample

# Pattern probabilities enumerate m**t tuples; five labelled nodes is plenty
# for edges, wedges, stars up to S4, and cliques up to C4.
MAX_PATTERN_NODES = 5

# Exhaustive expectations multiply pattern probabilities by placement
# counts; the point is tiny cross-checks, so keep n small.
MAX_EXACT_NODES = 12

# Exact rational degree counts are capped here; beyond it the binomial
# weights in the recursion exceed what is worth carrying exactly.
MAX_DEGREE_COUNT_NODES = 64

MIN_MC_SAMPLES = 100

# Exhaustive reference counting enumerates subsets; keep it to toy graphs.
BRUTE_FORCE_NODE_LIMIT = 14


def exact_subgraph_probability(
    model: GeneratingMeasure | NoiseSchedule,
    pattern: Iterable[tuple[int, int]],
    num_nodes: int | None = None,
) -> float:
    """Probability that every pair in the pattern is simultaneously present.

    The pattern is a set of pairs over labelled nodes 0..t-1; t is inferred
    from the largest label unless given.  Enumerates every category tuple at
    each level (see :func:`_pattern_probability`).
    """
    pairs = []
    max_label = -1
    for a, b in pattern:
        a, b = int(a), int(b)
        if a == b or a < 0 or b < 0:
            raise DomainError(f"pattern pair ({a}, {b}) is not a valid node pair")
        pairs.append((a, b) if a < b else (b, a))
        max_label = max(max_label, a, b)
    pairs = sorted(set(pairs))
    t = (max_label + 1) if num_nodes is None else int(num_nodes)
    if t <= max_label:
        raise DomainError(f"num_nodes={t} does not cover pattern label {max_label}")
    if t > MAX_PATTERN_NODES:
        raise PatternTooLargeError(
            f"pattern spans {t} nodes; enumeration is capped at {MAX_PATTERN_NODES}")
    if t == 0:
        return 1.0
    return _pattern_probability(model, pairs, t)


def _pattern_probability(model: GeneratingMeasure | NoiseSchedule,
                         pairs: Sequence[tuple[int, int]], t: int, number=float):
    """Probability over every level that each pair of the pattern is
    present: a measure's one-level survival to the k-th power, or the
    product of a schedule's survivals at each of its level matrices."""
    if isinstance(model, NoiseSchedule):
        return math.prod((_pattern_survival(probs, model.lengths, pairs, t, number)
                          for probs in model.level_matrices), start=number(1))
    return _pattern_survival(model.probs, model.lengths, pairs, t, number) ** model.k


def _pattern_survival(probs: np.ndarray, lengths: np.ndarray,
                      pairs: Sequence[tuple[int, int]], t: int, number=float):
    """One level's probability that every pair of the pattern on t labelled
    nodes is present, for that level's matrix ``probs``: a plain-Python sum
    over all m**t category tuples of the tuple's mass times the link
    probability of each pair, in ``number`` arithmetic (``Fraction`` makes
    it exact)."""
    lengths = [number(x) for x in lengths.tolist()]
    probs = [[number(x) for x in row] for row in probs.tolist()]
    per_level = number(0)
    for combo in itertools.product(range(len(lengths)), repeat=t):
        w = number(1)
        for c in combo:
            w *= lengths[c]
        for a, b in pairs:
            w *= probs[combo[a]][combo[b]]
        per_level += w
    return per_level


def star_survival_by_enumeration(measure: GeneratingMeasure, d: int) -> float:
    """Per-level survival of a d-star, by enumerating its m**(d+1) category
    tuples; no node cap, so keep m**(d+1) small."""
    return _pattern_survival(measure.probs, measure.lengths, _star_pattern(d), d + 1)


def clique_survival_by_enumeration(measure: GeneratingMeasure, t: int) -> float:
    """Per-level survival of a t-clique, by enumerating its m**t category
    tuples; no node cap, so keep m**t small."""
    return _pattern_survival(measure.probs, measure.lengths, _clique_pattern(t), t)


def exact_edge_variance(model: GeneratingMeasure | NoiseSchedule, n: int) -> Fraction:
    """Edge-count variance in exact rationals of the model's float
    parameters.  Each of the C(n,2) node pairs covaries with itself,
    S - S**2, and with each of the n(n-1)(n-2) ordered pairs that share one
    node with it, W - S**2; disjoint pairs are independent.  S and W are
    the pair and wedge probabilities, enumerated over category tuples."""
    pair = _pattern_probability(model, [(0, 1)], 2, Fraction)
    wedge = _pattern_probability(model, _star_pattern(2), 3, Fraction)
    return (math.comb(n, 2) * (pair - pair * pair)
            + n * (n - 1) * (n - 2) * (wedge - pair * pair))


def _star_pattern(d: int) -> list[tuple[int, int]]:
    return [(0, leaf) for leaf in range(1, d + 1)]


def _clique_pattern(t: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(t), 2))


def exact_expected_features(model: GeneratingMeasure | NoiseSchedule, n: int,
                            features: Sequence[str] = DEFAULT_FEATURES) -> FeatureVector:
    """Expectations as placement counts times brute-force pattern probabilities."""
    if n > MAX_EXACT_NODES:
        raise GraphTooLargeError(
            f"exhaustive expectations are capped at n = {MAX_EXACT_NODES}, got {n}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return FeatureVector({key: _exact_expected(model, n, key) for key in features})


def _exact_expected(model: GeneratingMeasure | NoiseSchedule, n: int, key: str) -> float:
    """One expectation: placement count times the pattern probability."""
    kind, order = parse_feature(key)
    if kind == "star":
        if not 1 <= order <= n - 1:
            raise DomainError(f"star order {order} infeasible on {n} nodes")
        prob = exact_subgraph_probability(
            model, _star_pattern(order), num_nodes=order + 1)
        return n * math.comb(n - 1, order) * prob
    if kind == "edges":  # an edge is a 2-clique
        order = 2
    if not 2 <= order <= n:
        raise DomainError(f"clique order {order} infeasible on {n} nodes")
    prob = exact_subgraph_probability(model, _clique_pattern(order), num_nodes=order)
    return math.comb(n, order) * prob


def exact_degree_counts(measure: GeneratingMeasure, n: int) -> list[Fraction]:
    """Expected number of nodes of each degree 0 .. n-1, as exact rationals.

    Uses the star identity E[S_d] = sum_{i>=d} C(i,d) E[N_i] (every node of
    degree i hosts C(i,d) of the d-stars centered on it) and unwinds it from
    the top degree down.  The subtraction chain is violently ill-conditioned
    in floating point, so it runs in arbitrary-precision rationals.
    """
    if n < 1:
        raise DomainError(f"exact_degree_counts needs n >= 1, got {n}")
    if n > MAX_DEGREE_COUNT_NODES:
        raise GraphTooLargeError(
            f"exact degree counts are capped at n = {MAX_DEGREE_COUNT_NODES}, got {n}")
    k = measure.k
    lengths = [Fraction(x) for x in measure.lengths.tolist()]
    # The stored lengths are floats that only sum to 1 up to rounding;
    # the telescoping below is exact only on the exact simplex, so
    # renormalize the rationals (a relative adjustment of ~1 ulp).
    total = sum(lengths)
    lengths = [x / total for x in lengths]
    probs = [[Fraction(x) for x in row] for row in measure.probs.tolist()]
    rows = [sum(probs[i][j] * lengths[j] for j in range(measure.m))
            for i in range(measure.m)]
    stars = []
    for d in range(n):
        base = sum(lengths[i] * rows[i] ** d for i in range(measure.m))
        stars.append(n * math.comb(n - 1, d) * base ** k)
    counts: list[Fraction] = [Fraction(0)] * n
    for d in range(n - 1, -1, -1):
        acc = stars[d]
        for i in range(d + 1, n):
            acc -= math.comb(i, d) * counts[i]
        counts[d] = acc
    return counts


def brute_force_counts(
    graph: Graph, features: Sequence[str] = DEFAULT_FEATURES
) -> FeatureVector:
    """Count features by raw subset enumeration (independent reference).

    Deliberately shares nothing with the fast counters: stars check every
    (center, leaf-set) pair, cliques check all pairwise adjacencies in every
    t-subset.  Limited to tiny graphs.
    """
    n = graph.n
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise GraphTooLargeError(
            f"brute-force counting is capped at {BRUTE_FORCE_NODE_LIMIT} nodes, got {n}")
    adj = [[False] * n for _ in range(n)]
    for u, v in graph.edge_array().tolist():
        adj[u][v] = adj[v][u] = True

    def count(key: str) -> int:
        kind, order = parse_feature(key)
        if kind == "star":
            return sum(all(adj[center][leaf] for leaf in leaves)
                       for center in range(n)
                       for leaves in itertools.combinations(
                           [v for v in range(n) if v != center], order))
        size = 2 if kind == "edges" else order  # an edge is a 2-clique
        return sum(all(adj[a][b] for a, b in itertools.combinations(group, 2))
                   for group in itertools.combinations(range(n), size))

    return FeatureVector({key: count(key) for key in features})


@dataclass(frozen=True)
class McStats:
    """Per-feature sample statistics over repeated naive draws."""

    samples: int
    means: dict[str, float]
    variances: dict[str, float]
    std_errors: dict[str, float]


def mc_feature_stats(
    measure: GeneratingMeasure,
    n: int,
    features: Sequence[str],
    samples: int,
    seed: int = 0,
) -> McStats:
    """Monte Carlo feature statistics from the exact naive sampler.

    Each replicate draws from its own RNG stream keyed by (seed, replicate),
    so the result is independent of evaluation order and reproducible.
    Variances are the unbiased sample variances; standard errors are
    sqrt(variance / samples).
    """
    if samples < MIN_MC_SAMPLES:
        raise DomainError(
            f"need at least {MIN_MC_SAMPLES} samples for stable statistics, got {samples}")
    keys = list(features)
    table = np.empty((samples, len(keys)))
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        graph = naive_sample(n, measure, rng)
        counts = feature_vector(graph, keys)
        for j, key in enumerate(keys):
            table[i, j] = counts.value(key)
    means = table.mean(axis=0)
    variances = table.var(axis=0, ddof=1)
    ses = np.sqrt(variances / samples)
    return McStats(
        samples=samples,
        means={key: float(means[j]) for j, key in enumerate(keys)},
        variances={key: float(variances[j]) for j, key in enumerate(keys)},
        std_errors={key: float(ses[j]) for j, key in enumerate(keys)},
    )
