"""Error types shared across the toolkit.

Every raisable condition carries a stable machine-readable ``code`` so CLI
reports and tests can match on it without parsing messages.  Conditions that
are legitimate *verdicts* (a search coming back inconclusive, a definitive
negative) are returned as result objects, not raised.
"""


class MedianKitError(Exception):
    code = "ERROR"

    def __init__(self, message: str = "", **data):
        super().__init__(message or self.code)
        self.data = data


class WallBudgetExceeded(MedianKitError):
    code = "WALL_BUDGET_EXCEEDED"


class EmptyInput(MedianKitError):
    code = "EMPTY_INPUT"


class NotAnAutomorphism(MedianKitError):
    code = "NOT_AN_AUTOMORPHISM"


class NotANewPoint(MedianKitError):
    code = "NOT_A_NEW_POINT"


class OutOfWindow(MedianKitError):
    code = "OUT_OF_WINDOW"


class NotTransverse(MedianKitError):
    code = "NOT_TRANSVERSE"


class NotFacing(MedianKitError):
    code = "NOT_FACING"


class InclusionFailed(MedianKitError):
    code = "INCLUSION_FAILED"


class ClassNotPreserved(MedianKitError):
    code = "CLASS_NOT_PRESERVED"


class ClassPermuted(MedianKitError):
    code = "CLASS_PERMUTED"


class HorizonExceeded(MedianKitError):
    code = "HORIZON_EXCEEDED"


class InvalidInput(MedianKitError):
    code = "INVALID_INPUT"
