"""Exception types shared across the package."""


class InverseLpError(Exception):
    """Base class for all package errors."""


class DimensionError(InverseLpError):
    """Input arrays are dimensionally inconsistent; names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class PreconditionError(InverseLpError, ValueError):
    """A documented precondition of an operation was violated."""


class ZeroVectorError(PreconditionError):
    """An operation that needs a nonzero vector received the zero vector."""


class ZeroObservationError(PreconditionError):
    """The observed point is the zero vector, which cannot anchor a strong-duality solve."""


class NominalInfeasibleError(InverseLpError):
    """The observed point violates the nominal constraints; carries the worst row (0-based)."""

    def __init__(self, row, violation):
        self.row = row
        self.violation = violation
        super().__init__(
            f"observed point is nominal-infeasible on constraint {row + 1} "
            f"(violation {violation:g})"
        )


class NumericalFailureError(InverseLpError):
    """The simplex could not find an acceptable pivot or exceeded its iteration cap."""


class ProblemFileError(InverseLpError):
    """A problem or solution document failed to parse; names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
