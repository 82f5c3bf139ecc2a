"""Exception hierarchy shared by all modules."""


class ApolarError(Exception):
    """Base class for all errors raised by this package.

    Every error is exactly one of GuardError, InternalError or
    PolySyntaxError.
    """


class GuardError(ApolarError):
    """A precondition or input check failed (CLI exit 2)."""


class InternalError(ApolarError):
    """An internal cross-check failed: always a bug (CLI exit 3)."""


class CharacteristicTooSmall(GuardError):
    def __init__(self, char, degree):
        self.char = char
        self.degree = degree
        super().__init__(
            "field characteristic %d is not zero and not greater than degree %d"
            % (char, degree)
        )


class DivisionByZero(GuardError):
    pass


class ArityMismatch(GuardError):
    pass


class FieldMismatch(GuardError):
    pass


class IndexOutOfRange(GuardError):
    pass


class AmbientMismatch(GuardError):
    pass


class ZeroPolynomial(GuardError):
    pass


class WindowTooLarge(GuardError):
    """A window would have more columns than the linear algebra budget."""


class DecompositionInvariantViolated(InternalError):
    """The computed symmetric decomposition broke a theorem-level invariant.

    This always signals an implementation bug, never bad input.
    """


class InvalidAutomorphism(GuardError):
    pass


class NotAUnit(GuardError):
    pass


class SingularMatrix(GuardError):
    pass


class CrossCheckFailed(InternalError):
    """Two independent computations of the same object disagree (bug signal)."""


class NotInTangent(GuardError):
    """The leading form is outside the unipotent tangent space of the target."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__("leading form of degree %d not in tangent space" % degree)


class ReductionFailed(InternalError):
    """A reduction step did not lower the degree (bug signal)."""


class TdfMismatch(GuardError):
    pass


class NotTCompressed(GuardError):
    pass


class HypothesisFailed(GuardError):
    def __init__(self, message, degree=None):
        self.degree = degree
        super().__init__(message)


class WrongHilbertFunction(GuardError):
    pass


class GoldenMismatch(InternalError):
    def __init__(self, diffs):
        self.diffs = list(diffs)
        super().__init__("golden data mismatch:\n" + "\n".join(self.diffs))


class PolySyntaxError(ApolarError):
    """Raised on malformed polynomial/operator text; carries the position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__("%s (at position %d)" % (message, position))
