"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class CapExceeded(RuntimeError):
    """A requested instance exceeds a configured size cap, or its values
    exceed the float64 range."""


class ExceptionalParameters(RuntimeError):
    """Coincident death intensities: the closed-form eigenpolynomial
    construction is ill-defined and only the numeric eigenbasis applies.

    The ``details`` dict carries diagnostics (the offending q pair, the
    coincidence gap, and for n=2 the reference eigenvalues of the
    degree-one block).
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = dict(details or {})


class NoConvergence(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class SingularParameters(ValidationError):
    """The four rates of the rational two-dimensional family sit on the
    singular surface p1*p4 == p2*p3 where the dual system is undefined."""


class AbsorbingState(RuntimeError):
    """A stochastic simulation reached a state with zero total rate."""
