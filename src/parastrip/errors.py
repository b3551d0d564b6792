"""Exception taxonomy shared by all parastrip modules."""

__all__ = ["ParastripError", "ConfigurationError", "DomainError", "ConvergenceError", "InstabilityError"]


class ParastripError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigurationError(ParastripError, ValueError):
    """Invalid parameters, grids, or experiment configs."""


class DomainError(ParastripError, ValueError):
    """An evaluation point left the declared analyticity domain.

    Raised for strip violations, branch-cut hits of the smoothed
    nonlinearities, and complex times outside the temporal region.
    """


class ConvergenceError(ParastripError, RuntimeError):
    """An iteration failed to contract (Picard sweeps, fits)."""


class InstabilityError(ParastripError, RuntimeError):
    """Non-finite values appeared during time stepping."""
