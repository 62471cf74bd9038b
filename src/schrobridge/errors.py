"""Exception types shared across the package."""

from __future__ import annotations


class SchrobridgeError(Exception):
    """Base class for all package-specific errors."""


class NumericDomainError(SchrobridgeError):
    """Raised when a value leaves the numeric domain (NaN, inf, bad ordering)."""


class TimeOrderingError(NumericDomainError):
    """Raised when kernel or lattice times are not strictly increasing."""


class NormalizationError(SchrobridgeError):
    """Raised when a field that must carry unit (or positive) mass does not."""


class PositivityError(SchrobridgeError):
    """Raised when a quantity that must be positive is not."""


class ConvergenceError(SchrobridgeError):
    """Raised when an iteration exceeds its sweep budget.

    Carries the last marginal residual, the quantity the iteration stops
    on, so callers can report how far it got.
    """

    def __init__(self, message: str, last_residual: float = float("nan")):
        super().__init__(message)
        self.last_residual = last_residual


class IncompatibilityError(SchrobridgeError):
    """Raised when boundary data cannot be matched (non-positive intermediate)."""


class PropagationError(SchrobridgeError):
    """Raised when propagated factors lose probability mass beyond tolerance."""


class MissingInputError(SchrobridgeError):
    """Raised when a referenced input file does not exist or cannot be read."""


class ConfigError(SchrobridgeError):
    """Raised for malformed or invalid scenario configuration."""


class ExtrapolationWarning(UserWarning):
    """Emitted when a step-size extrapolation table is not monotone."""
