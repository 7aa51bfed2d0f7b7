"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data violates a structural invariant of the model."""


class DimensionMismatch(ValidationError):
    """Objects that must share a dimension do not."""


class RowNotStochastic(ValidationError):
    """A kernel row fails the row-sum test."""

    def __init__(self, row: int, deviation: float):
        self.row = row
        self.deviation = deviation
        super().__init__(f"row {row} is not stochastic (|sum - 1| = {deviation:.3e})")


class NotInvariant(ValidationError):
    """The supplied measure is not invariant under the kernel."""

    def __init__(self, deviation: float, detail: str = ""):
        self.deviation = deviation
        msg = f"measure is not invariant (max deviation {deviation:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class MultipleStationary(ValidationError):
    """The kernel's fixed space has dimension > 1; the caller must supply the
    stationary vector explicitly."""


class NotMeasurePreserving(ValidationError):
    """A map fails the pushforward test against the space's measure."""

    def __init__(self, point: int, deviation: float, detail: str = ""):
        self.point = point
        self.deviation = deviation
        msg = f"map is not measure preserving (worst point {point}, deviation {deviation:.3e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class StartOffSupport(ValidationError):
    """A trajectory start lies outside the support of the relevant measure."""


class InvalidPairState(ValidationError):
    """The requested (state, point) pair is not a pair-chain state."""


class NotApplicable(ValueError):
    """A constructor's precondition on the input class is not met."""


class TooLarge(ValueError):
    """Instance exceeds a named size cap: a brute-force routine's enumeration
    cap, or a horizon or trial count of the ergodic routines."""


class GenerationFailed(RuntimeError):
    """Random instance generation exhausted its retry budget."""


class InternalInconsistency(RuntimeError):
    """Two routes that must agree produced different answers. This signals an
    implementation bug, never bad input."""


class TheoremViolation(RuntimeError):
    """A structural consequence that is guaranteed for the input class failed
    to hold. Signals an implementation bug."""


class ParseError(ValueError):
    """A config document is malformed; the message names the offending field."""

    def __init__(self, field: str, reason: str):
        self.field = field
        super().__init__(f"config field '{field}': {reason}")
