"""Exception types shared across the package, and the type and seed
checks that configuration objects run on their fields."""

import math
from numbers import Integral, Real


class ReclensError(Exception):
    """Base class for all library errors."""


class ParseError(ReclensError):
    """A text input file is malformed; the message names the line number."""


class ValidationError(ReclensError):
    """A value, configuration, or data structure violates its contract."""


class FormatError(ReclensError):
    """A saved model or shadow file is truncated, is not JSON, or lacks or
    mistypes a field; the message names the file."""


class OutputError(ReclensError, OSError):
    """An output file could not be written; the message names the file.
    It is an ``OSError`` too, as the failed write that caused it was."""


class SolverError(ReclensError):
    """A linear system could not be solved (typically singular at zero
    regularization)."""


class EstimatorMismatchError(ReclensError):
    """``qii_exact_binary`` got a non-binary feature value; the message
    points to ``qii_monte_carlo``."""


class InsufficientDataError(ReclensError):
    """Not enough data survives to carry out the requested operation."""


class StatsError(ReclensError):
    """A statistical test received degenerate samples."""


def is_integer(value) -> bool:
    """True for an int or a numpy integer; bools are not numbers here."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """True for a finite int or float; bools are not numbers here, nor is an
    int beyond float's range."""
    try:
        return (isinstance(value, Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def excerpt(text: str, width: int = 40) -> str:
    """``text`` as an error message quotes it: whole up to ``width``
    characters, otherwise its first ``width - 3`` and ``...``."""
    return text if len(text) <= width else text[:width - 3] + "..."


def check_types(owner, integers=(), reals=(), flags=()):
    """Raise ``ValidationError`` unless every named attribute of ``owner``
    has its type: each of ``integers`` an int, each of ``reals`` a finite
    int or float, each of ``flags`` a bool.  A bool is neither an integer
    nor a real here, so ``true`` in a config file is no count.  The
    message quotes the value's :func:`excerpt` and calls ``lam``
    ``lambda``, as every file, config and flag does.  Each real is stored
    back as a float, so no Python int too large for numpy stays."""
    checks = (
        (integers, "an integer", is_integer),
        (reals, "a finite number", is_finite_real),
        (flags, "true or false", lambda v: isinstance(v, bool)),
    )
    for names, what, ok in checks:
        for name in names:
            value = getattr(owner, name)
            if not ok(value):
                label = "lambda" if name == "lam" else name
                raise ValidationError(
                    f"mistyped value for {label}: {excerpt(repr(value))} is not {what}"
                )
            if ok is is_finite_real:
                object.__setattr__(owner, name, float(value))


def check_seed(seed) -> None:
    """Raise ``ValidationError`` for a negative seed, which numpy's
    generators reject with a bare ``ValueError``."""
    if seed < 0:
        raise ValidationError("seed must be >= 0")
