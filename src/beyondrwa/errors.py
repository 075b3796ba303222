"""Shared error taxonomy.

Everything library-specific derives from BeyondRwaError so callers can
catch one base class.
"""


class BeyondRwaError(Exception):
    """Base class for all library errors."""


class DomainError(BeyondRwaError):
    """Parameter or argument outside its physical or mathematical domain."""


class ShapeError(BeyondRwaError):
    """Array argument has the wrong shape or sparsity pattern."""


class GridError(BeyondRwaError):
    """Time or parameter grid is unusable (too short, not ascending, ...)."""


class BlowupError(BeyondRwaError):
    """A disentangling coefficient crossed the blowup threshold.

    Carries the failure time and the channel series sampled before it so a
    sweep can keep the valid prefix of its grid.
    """

    def __init__(self, t_fail, partial=None):
        super().__init__(f"disentangling coefficient blowup at t={t_fail:.6g}")
        self.t_fail = t_fail
        self.partial = partial


class ToleranceError(BeyondRwaError):
    """The adaptive integrator could not meet its tolerances."""


class NumericalError(BeyondRwaError):
    """A numeric precondition failed (e.g. eigenvalues negative beyond tolerance)."""


class NegativeDiagonalError(BeyondRwaError):
    """A density-matrix diagonal is negative beyond the allowed transient scale."""


class IoError(BeyondRwaError):
    """Output file could not be written."""
