"""Exception types shared across the package."""

__all__ = [
    "NonSquareError",
    "NotHermitianError",
    "DimensionMismatchError",
    "NotTracePreservingError",
    "InvalidOrderError",
    "NotPositiveError",
    "InvalidSpectrumError",
    "DomainError",
    "UnknownChannelError",
    "ParamOutOfRangeError",
    "SingularNormalizerError",
    "BoundViolation",
]


class NonSquareError(ValueError):
    """Operation requires a square matrix."""


class NotHermitianError(ValueError):
    """Matrix deviates from Hermiticity beyond tolerance."""


class DimensionMismatchError(ValueError):
    """Matrix or vector dimensions incompatible with the requested operation."""


class NotTracePreservingError(ValueError):
    """Kraus set fails the trace-preservation condition beyond tolerance."""


class InvalidOrderError(ValueError):
    """Schatten order outside the valid range for the requested regime."""


class NotPositiveError(ValueError):
    """Matrix fails the positivity requirement of an anti-norm or clamp."""


class InvalidSpectrumError(ValueError):
    """Spectrum contains negative weight or carries no weight at all."""


class DomainError(ValueError):
    """Scalar argument outside the mathematical domain of a function."""


class UnknownChannelError(ValueError):
    """Named channel not in the registry."""


class ParamOutOfRangeError(ValueError):
    """Channel parameter outside its valid range."""


class SingularNormalizerError(RuntimeError):
    """Kraus normalizer stayed numerically singular after resampling."""


class BoundViolation(RuntimeError):
    """A trade-off lower bound failed beyond tolerance.

    Carries the offending report so the counterexample can be serialized;
    this is never swallowed silently.  A grid evaluation also passes the
    whole grid and the ``(k, i, j)`` index of the offending cell in it:
    channel ``k`` of the stack, at ``(q[i], s[j])``.
    """

    def __init__(self, message, report, grid=None, cell=None):
        super().__init__(message)
        self.report = report
        self.grid = grid
        self.cell = cell
