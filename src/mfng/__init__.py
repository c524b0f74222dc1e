"""Multifractal network generator.

Closed-form subgraph moments of the recursive link model, moment-matching
fits against observed graphs, and exact plus fast approximate samplers.
"""

from .errors import (
    CliqueSizeError,
    DegenerateDiagonalError,
    DepthOverflowError,
    DomainError,
    GraphTooLargeError,
    LengthVectorError,
    MeasureValidationError,
    MfngError,
    NonSymmetricError,
    ParseError,
    PatternTooLargeError,
    ProbabilityRangeError,
    SchemaError,
    StalledError,
    TooLargeError,
    UnsupportedMError,
    ZeroTargetFeatureError,
    ZeroWedgesError,
)
from .features import (
    DegreeDistribution,
    Graph,
    clustering_coefficient,
    count_4cliques,
    count_stars,
    count_triangles,
    degree_distribution,
    feature_vector,
    from_edge_list,
)
from .fit import FitConfig, FitResult, fit
from .measure import (
    DEFAULT_FEATURES,
    CliqueNumberEstimate,
    EdgeMoments,
    FeatureVector,
    GeneratingMeasure,
    edge_moments,
    edge_survival_factor,
    estimate_clique_number,
    expected_d_stars,
    expected_degree_counts,
    expected_edges,
    expected_feature_vector,
    expected_t_cliques,
    make_measure,
    parse_feature,
)
from .sampler import (
    fast_sample,
    naive_sample,
    noisy_sample,
    sample_by_intersection,
)

__version__ = "0.1.0"
