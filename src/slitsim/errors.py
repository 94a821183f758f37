"""Exception types shared across the solvers."""


class SlitsimError(Exception):
    """Base class for all errors raised by this package."""


class NodeError(SlitsimError):
    """Velocity or quantum potential requested where |psi|^2 is below the
    node threshold; the quantity is undefined there."""


class GridTooSmall(SlitsimError):
    """Grid has fewer points per axis than the boundary stencils need."""


class TooFewPoints(SlitsimError):
    """Point set smaller than the requested neighbor count, or fewer
    neighbors than basis polynomials."""


class IllConditioned(SlitsimError):
    """Normal-equation matrix too ill-conditioned for a trustworthy fit."""


class OutsideGrid(SlitsimError, ValueError):
    """Point outside the grid, e.g. a trajectory that left the domain."""


class ConfigError(SlitsimError):
    """Scenario configuration file failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
