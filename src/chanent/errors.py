"""Exception types shared across the package; a bound violation is data, ``GridReport.violation``."""

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
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a function: an order, or an input it cannot take."""


class NonSquareError(DomainError):
    """Operation requires a square matrix."""


class NotHermitianError(DomainError):
    """Matrix deviates from Hermiticity beyond tolerance: an input an eigenvalue decomposition cannot take."""


class DimensionMismatchError(ValueError):
    """Matrix or vector dimensions incompatible with the requested operation."""


class NotTracePreservingError(ValueError):
    """Kraus set fails the trace-preservation condition beyond tolerance."""


class InvalidOrderError(ValueError):
    """Schatten order outside the valid range for the requested regime."""


class NotPositiveError(ValueError):
    """Matrix fails the positivity requirement of an anti-norm or clamp."""


class InvalidSpectrumError(DomainError):
    """Spectrum contains negative weight or carries no weight at all, or its matrix a non-finite entry."""


class UnknownChannelError(ValueError):
    """Named channel not in the registry."""


class ParamOutOfRangeError(ValueError):
    """Channel parameter outside its valid range."""
