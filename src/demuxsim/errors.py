"""Exception hierarchy shared across the toolkit, and the four input rules that raise it."""

import sys
from numbers import Integral, Real

__all__ = [
    "DemuxError",
    "DomainError",
    "ConfigError",
    "DataError",
    "CompatibilityError",
    "EstimationError",
    "FitNonConvergenceError",
]


class DemuxError(Exception):
    """Base class for all toolkit errors."""


class DomainError(DemuxError, ValueError):
    """An argument is outside its physical or mathematical domain."""


class ConfigError(DemuxError):
    """A run configuration is malformed, incomplete, or inconsistent."""


class DataError(DemuxError):
    """Input data violate an invariant (e.g. unsorted tags, impossible rates)."""


class CompatibilityError(DemuxError):
    """A tag stream does not belong to the configuration used to analyze it."""


class EstimationError(DemuxError):
    """An estimator cannot produce a result from the given data."""


class FitNonConvergenceError(DemuxError):
    """Least-squares iteration exhausted its budget without converging."""

    def __init__(self, message, iterations=None, residual_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


def check_integer(name: str, value, minimum: int, error: type[DemuxError] = DomainError) -> int:
    """value as an int >= minimum; numpy integers count, bools, floats and strings do not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


# the largest finite float, which an int too large to convert also exceeds
_FINITE = sys.float_info.max


def check_unit_interval(name: str, value, error: type[DemuxError] = DomainError):
    """value when it is a number in [0, 1]; NaN is refused."""
    if not (_real(value) and 0.0 <= value <= 1.0):
        raise error(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_positive(name: str, value, error: type[DemuxError] = DomainError):
    """value when it is a finite number > 0; NaN is refused."""
    if not (_real(value) and 0 < value <= _FINITE):
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_non_negative(name: str, value, error: type[DemuxError] = DomainError):
    """value when it is a finite number >= 0; NaN is refused."""
    if not (_real(value) and 0 <= value <= _FINITE):
        raise error(f"{name} must be finite and >= 0, got {value!r}")
    return value
