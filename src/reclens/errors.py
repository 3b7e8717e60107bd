"""Exception types shared across the package."""


class ReclensError(Exception):
    """Base class for all library errors."""


class ParseError(ReclensError):
    """A text input file is malformed; the message names the line number."""


class ValidationError(ReclensError):
    """A value, configuration, or data structure violates its contract."""


class FormatError(ReclensError):
    """A saved model or shadow file is truncated, is not JSON, or lacks or
    mistypes a field; the message names the file."""


class SolverError(ReclensError):
    """A linear system could not be solved (typically singular at zero
    regularization)."""


class EstimatorMismatchError(ReclensError):
    """The requested influence estimator does not apply to the given input."""


class InsufficientDataError(ReclensError):
    """Not enough data survives to carry out the requested operation."""


class StatsError(ReclensError):
    """A statistical test received degenerate samples."""
