"""Exception types shared across the package."""


class TraceInvError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(TraceInvError):
    """A matrix expected to be symmetric positive definite is not.

    Raised when a Cholesky pivot is non-positive (or below the pivot tolerance), or when
    a quadrature node of a stochastic estimator comes out non-positive. For shifted
    operands A + t*B this signals that t is at or below t_min, and for a
    ``StieltjesSum`` that t is at or left of its first pole.
    """


class DimensionMismatch(TraceInvError):
    """Operand shapes are incompatible."""


class InvalidShape(TraceInvError):
    """A constructor argument has an inadmissible shape (e.g. n <= m)."""


class SingularSystem(TraceInvError):
    """The linear system for interpolation coefficients is singular."""


class NonPositiveResult(TraceInvError):
    """An interpolant evaluated to a non-positive trace value."""


class PoleInDomain(TraceInvError):
    """A rational fit is no positive sum with every pole left of its domain.

    Carries the offending (possibly complex) poles so callers can nudge the nodes.
    """

    def __init__(self, message, poles):
        super().__init__(message)
        self.poles = list(poles)
