"""Exception hierarchy shared across the toolkit."""

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
