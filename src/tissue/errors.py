"""Exception types shared across the package."""

from __future__ import annotations


class TissueError(Exception):
    """Base class for all package errors."""


class GeometryError(TissueError):
    """Invalid geometry parameters or exceeded unknown budget."""


class NonlinearityError(TissueError):
    """Membrane law fails a structural assumption."""


class ConfigError(TissueError):
    """Run configuration problem.

    ``exit_code`` is 2 for parse errors and 3 for validation errors, matching
    the CLI contract.
    """

    def __init__(self, message: str, exit_code: int = 3):
        super().__init__(message)
        self.exit_code = exit_code


class LinearSolveError(TissueError):
    """Linear solve failed to reach its residual tolerance."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class NewtonError(TissueError):
    """The implicit step failed: the factor path did not converge within
    ``newton_max_iter`` passes; carries its residual history."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class FixedPointError(TissueError):
    """Periodic fixed-point iteration exceeded its budget.

    Carries the defect sequence.  The accelerated iteration's defects need
    not decrease, but a rise is followed by a damped Picard step, whose
    defect is no larger for a nonexpansive period map; a rise that persists
    beyond roundoff indicates a solver bug, not a convergence failure.
    """

    def __init__(self, message: str, defects=None):
        super().__init__(message)
        self.defects = list(defects) if defects is not None else []
