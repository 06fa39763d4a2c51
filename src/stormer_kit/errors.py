"""Exception types shared across the package."""

__all__ = ["DimensionError", "DomainError", "InputError", "ScaleError", "StormerKitError"]


class StormerKitError(ValueError):
    """Base class for all library errors."""


class DimensionError(StormerKitError):
    """Matrix or block shapes do not conform."""


class DomainError(StormerKitError):
    """Input is outside the mathematical domain of the operation."""


class ScaleError(DomainError):
    """Finite input whose arithmetic overflows double precision: malformed
    input that must be rescaled, never a verdict."""


class InputError(StormerKitError):
    """Malformed file or CLI input."""
