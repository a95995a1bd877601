"""Error types shared across the toolkit.

Every raisable condition carries a stable machine-readable ``code`` so CLI
reports and tests can match on it without parsing messages, and the CLI's
``exit_code`` for it: 65 by default, 3 inconclusive, 2 definitive negative.
Conditions that are legitimate *verdicts* (a search coming back
inconclusive, a definitive negative) are returned as result objects, not raised.
"""


class MedianKitError(Exception):
    code = "ERROR"
    exit_code = 65

    def __init__(self, message: str = "", **data):
        super().__init__(message or self.code)
        self.data = data


class WallBudgetExceeded(MedianKitError):
    code = "WALL_BUDGET_EXCEEDED"
    exit_code = 3


class EmptyInput(MedianKitError):
    code = "EMPTY_INPUT"


class NotAnAutomorphism(MedianKitError):
    code = "NOT_AN_AUTOMORPHISM"


class NotANewPoint(MedianKitError):
    code = "NOT_A_NEW_POINT"


class OutOfWindow(MedianKitError):
    code = "OUT_OF_WINDOW"
    exit_code = 3


class NotTransverse(MedianKitError):
    code = "NOT_TRANSVERSE"
    exit_code = 2


class NotFacing(MedianKitError):
    code = "NOT_FACING"
    exit_code = 2


class InclusionFailed(MedianKitError):
    code = "INCLUSION_FAILED"
    exit_code = 2


class ClassNotPreserved(MedianKitError):
    code = "CLASS_NOT_PRESERVED"
    exit_code = 2


class ClassPermuted(MedianKitError):
    code = "CLASS_PERMUTED"
    exit_code = 2


class HorizonExceeded(MedianKitError):
    code = "HORIZON_EXCEEDED"
    exit_code = 3


class InvalidInput(MedianKitError):
    code = "INVALID_INPUT"
