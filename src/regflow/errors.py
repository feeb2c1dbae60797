"""Exception types shared across the package."""


class RegflowError(Exception):
    """Base class for all regflow errors."""


class UsageError(RegflowError, ValueError):
    """A call whose arguments violate an operation's contract."""


class ConstructionError(RegflowError, ValueError):
    """Invalid parameters for an object (degenerate set, bad matrix, ...)."""


class ConfigError(RegflowError, ValueError):
    """A scenario config that failed validation, with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ConvergenceError(RegflowError, RuntimeError):
    """An iterative method exhausted its budget. Carries the best result found."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class IntegrationError(RegflowError, RuntimeError):
    """Adaptive integration failed. Carries the partial trajectory."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class FitError(RegflowError, RuntimeError):
    """A decay-model fit could not be performed on the given samples."""


class DegenerateEstimateError(RegflowError, RuntimeError):
    """All samples fell below the degeneracy floor; no estimate possible."""


class NumericRangeError(RegflowError, ArithmeticError):
    """A computed quantity left the range of a float."""
