"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class CapExceeded(RuntimeError):
    """A requested instance exceeds a size cap, or its values exceed the
    float64 range."""


class ExceptionalParameters(RuntimeError):
    """Equal death intensities: the closed-form eigenpolynomial
    construction is ill-defined and only the numeric eigenbasis applies."""


class NoConvergence(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class SingularParameters(ValidationError):
    """The four rates of the rational two-dimensional family sit on the
    singular surface p1*p4 == p2*p3 where the dual system is undefined."""


class AbsorbingState(RuntimeError):
    """A stochastic simulation reached a state with zero total rate."""
