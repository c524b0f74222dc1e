"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`MfngError`, so callers
(and the command-line front end) can separate "the input is bad" from
"the computation gave up".
"""


class MfngError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MfngError, ValueError):
    """An argument lies outside the operation's domain (bad n, d, t, ...)."""


class MeasureValidationError(MfngError, ValueError):
    """A generating measure violates a structural invariant."""


class NonSymmetricError(MeasureValidationError):
    """The link-probability matrix is not exactly symmetric."""


class ProbabilityRangeError(MeasureValidationError):
    """A link probability falls outside [0, 1] (or the matrix is malformed)."""


class LengthVectorError(MeasureValidationError):
    """Interval lengths are malformed, non-positive, or do not sum to one."""


class DepthOverflowError(MeasureValidationError):
    """m**k does not fit the 62-bit category-tuple encoding."""


class TooLargeError(MfngError, ValueError):
    """An exhaustive enumeration, or a fast-sampler run, was requested
    beyond its feasible size."""


class CliqueSizeError(TooLargeError):
    """Clique order t exceeds the m**t enumeration cap."""


class PatternTooLargeError(TooLargeError):
    """An edge pattern spans more labelled nodes than brute force allows."""


class GraphTooLargeError(TooLargeError):
    """The graph is too large for an exhaustive reference computation."""


class StalledError(MfngError, RuntimeError):
    """The fast sampler stopped making progress before hitting its target.

    ``placed`` and ``target`` are the edge counts reached and aimed for, and
    ``streak`` is the run of consecutive boxes that placed nothing.
    """

    def __init__(self, message, placed=None, target=None, streak=None):
        super().__init__(message)
        self.placed = placed
        self.target = target
        self.streak = streak


class UnsupportedMError(MfngError, ValueError):
    """The operation is only defined for two-category measures."""


class DegenerateDiagonalError(MfngError, ValueError):
    """The diagonal of the probability matrix sums to zero."""


class ZeroTargetFeatureError(MfngError, ValueError):
    """A fit target contains a zero count for a fitted feature."""


class ZeroWedgesError(MfngError):
    """The clustering coefficient is undefined on a graph with no wedges."""


class ParseError(MfngError, ValueError):
    """An edge-list file could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class SchemaError(MfngError, ValueError):
    """A measure document is structurally invalid."""
