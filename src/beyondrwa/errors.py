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


class ToleranceError(BeyondRwaError):
    """A DOP853 integration could not meet its tolerance: an interval of
    integrate or direct_channel still missed it after MAX_DOUBLINGS
    doublings of its steps, as at a pole of the solution, or a direct step
    was not finite."""


class NumericalError(BeyondRwaError):
    """A numeric precondition failed (e.g. eigenvalues negative beyond tolerance)."""


class NegativeDiagonalError(BeyondRwaError):
    """A density-matrix diagonal is negative beyond the allowed transient scale."""


class IoError(BeyondRwaError):
    """Output file could not be written."""
