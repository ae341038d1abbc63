"""Exception hierarchy. Every domain failure maps to exit code 1 in the CLI."""


class FlowerlabError(Exception):
    """Base class for all domain errors."""


class InvalidGridError(FlowerlabError):
    pass


class GridMismatchError(FlowerlabError):
    pass


class ParameterError(FlowerlabError):
    pass


class DegenerateInputError(FlowerlabError):
    pass


class NotAFlowerError(FlowerlabError):
    def __init__(self, message: str, violation: float | None = None):
        super().__init__(message)
        self.violation = violation


class CertificationRequiredError(FlowerlabError):
    pass


class UnboundedBodyError(FlowerlabError):
    pass


class ConvergenceError(FlowerlabError):
    def __init__(self, message: str, m: int, increment: float):
        super().__init__(message)
        self.m = m
        self.increment = increment


class SingularPointError(FlowerlabError):
    pass


class ArcThroughInfinityError(FlowerlabError):
    pass


class SymmetryError(FlowerlabError):
    pass


class MethodDisagreementError(FlowerlabError):
    """The arc criterion and the direct convex-position test disagree."""


class UnsupportedDimensionError(FlowerlabError):
    pass


class BodyFileError(FlowerlabError):
    pass
