"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from
:class:`RobustCtlError`, so callers can catch one type at the CLI boundary
and map it to an exit code.
"""

from __future__ import annotations

__all__ = [
    "RobustCtlError",
    "ModelEvaluationError",
    "SimulationBlowUpError",
    "StrategyStructureError",
    "StrategyIntervalError",
    "CflViolationError",
    "NumericalSolveError",
    "EmbeddingMismatchError",
    "ConfigError",
]


class RobustCtlError(Exception):
    """Base class for all package errors."""


class ModelEvaluationError(RobustCtlError):
    """A model callback returned something unusable (wrong shape, NaN, out of bound).

    The message names the offending inputs so a bad coefficient function can
    be located from the error alone.
    """


class SimulationBlowUpError(RobustCtlError):
    """A simulated state left the finite range. Carries time and state."""

    def __init__(self, message: str, *, t: float | None = None, state=None, seed=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.seed = seed


class StrategyStructureError(RobustCtlError):
    """A strategy or stopping rule violates a structural precondition."""


class StrategyIntervalError(RobustCtlError):
    """A strategy was queried at a time where it is not defined."""


class CflViolationError(RobustCtlError):
    """Requested time step exceeds the stability bound of the explicit scheme."""

    def __init__(self, message: str, *, dt: float | None = None, dt_max: float | None = None):
        super().__init__(message)
        self.dt = dt
        self.dt_max = dt_max


class NumericalSolveError(RobustCtlError):
    """A numerical routine failed to reach its tolerance. Carries the residual."""

    def __init__(self, message: str, *, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class EmbeddingMismatchError(RobustCtlError):
    """Replayed adversary paths did not reproduce the trajectories. Carries the
    first mismatching row's step, max_abs_diff and seed, and every mismatching row."""

    def __init__(self, message: str, *, step: int | None = None, max_abs_diff: float | None = None,
                 seed: int | None = None, rows: list | None = None):
        super().__init__(message)
        self.step = step
        self.max_abs_diff = max_abs_diff
        self.seed = seed
        self.rows = rows


class ConfigError(RobustCtlError):
    """Invalid run configuration. ``errors`` lists every violation found."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
