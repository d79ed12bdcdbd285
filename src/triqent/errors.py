"""Exception types shared across the package.

Two broad families matter to callers: ValidationError (the input itself is
unusable) and NumericalError (the input was fine but a numerical routine left
its accuracy envelope). The CLI maps them to exit codes 2 and 3.
"""


class TriqentError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TriqentError):
    """Bad input: wrong shape, range, name, or missing parameters."""


class NumericalError(TriqentError):
    """A numerical routine produced a result outside its guaranteed accuracy."""


class ZeroVector(ValidationError):
    """All amplitudes of a would-be state are numerically zero."""


class BadNormalization(ValidationError):
    """A state or coefficient tuple is not normalized to within tolerance."""


class NonUnitary(ValidationError):
    """A matrix that must be unitary is not, beyond tolerance."""


class UnknownType(ValidationError):
    """An entanglement type identifier is not in the taxonomy."""


class UnknownRegion(ValidationError):
    """A polytope region kind or face sign vector is not recognized."""


class UnknownModel(ValidationError):
    """A chain model name is not one of tfim, xx, xxx, xzx."""


class OutOfRange(ValidationError):
    """A scalar argument lies outside its allowed interval."""


class OutOfDomain(ValidationError):
    """A curve or spectrum was evaluated outside its domain."""


class UnsupportedType(ValidationError):
    """The operation is defined only for a subset of types or levels."""


class NotDegenerate(ValidationError):
    """A degenerate-subspace operation was applied to a simple level."""


class NeedParams(ValidationError):
    """A degenerate level requires superposition parameters."""


class CrossingPoint(ValidationError):
    """The request is ambiguous at a level crossing without the merged basis."""


class ComplexTau(NumericalError):
    """The surface radicand is negative: the requested point is unreachable."""


class ConvergenceFailure(NumericalError):
    """The eigensolver did not reach the requested residual."""
