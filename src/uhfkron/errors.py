"""Exception types shared across the package, each with its CLI ``code``,
and the numpy-free argument checks that raise them.

The readers ``_integer``, ``_integers``, ``_entries``, ``_guard`` and
``_finite`` read an argument as an int, a tuple of ints, a tuple, a
guarded count and a tolerance, and are the only builders of the bound
messages ("is < ", " outside ", "exceeds guard", "is not a finite
number").  They use the standard library alone, so a request that does no
array work (``atom-product``, help, a usage error) loads no numpy.
"""

import math
import operator

__all__ = [
    "UhfError",
    "SignatureError",
    "IndexRangeError",
    "ValidationError",
    "ResourceGuardError",
    "GramMismatchError",
    "ParseError",
]


class UhfError(Exception):
    """Base class for every error raised by this package."""
    code = "error"


class SignatureError(UhfError, ValueError):
    """Signatures disagree or are malformed for the requested operation."""
    code = "signature-mismatch"


class IndexRangeError(UhfError, ValueError):
    """A matrix-unit index lies outside the dimension of its factor."""
    code = "index-range"


class ValidationError(UhfError, ValueError):
    """A domain value (density factor, atom label, ...) violates its contract."""
    code = "validation"


class ResourceGuardError(UhfError, RuntimeError):
    """A dense materialization would exceed the configured size guard."""
    code = "resource-guard"


class GramMismatchError(UhfError, ArithmeticError):
    """Two cyclic vectors that must agree differ, so the intertwiner
    would not intertwine them.  Signals a bug in the caller's data, not a
    property of the construction."""
    code = "gram-mismatch"


class ParseError(UhfError, ValueError):
    """Syntax or consistency error in expression text, with location."""
    code = "parse-error"

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


# Default tolerance for numerical comparisons of coefficients/entries.
COMPARE_TOL = 1e-12
# Largest total dimension a dense materialization will allocate.
DENSE_DIM_GUARD = 4096


def _integer(value, error, what: str, where: str = "", *,
             low: int | None = None, high: int | None = None) -> int:
    # value as an int (operator.index: ints, bools and numpy integers,
    # nothing truncated), else error "<what> <value><where> is not an
    # integer".  With ``low``, a value below it raises error
    # "<what> <value><where> is < <low>"; with ``high`` too, a value
    # outside them raises "<what> <value><where> outside <low>..<high>"
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r}{where} is not an integer") from None
    if low is not None and (value < low or high is not None and value > high):
        if high is None:
            raise error(f"{what} {value}{where} is < {low}")
        raise error(f"{what} {value}{where} outside {low}..{high}")
    return value


def _integers(values: tuple, error, what: str, where: str, *,
              low: int | None = None,
              high: int | None = None) -> tuple[int, ...]:
    # each entry as an int in the bounds, else _integer's error for the
    # first entry that is not, ``where`` formatted with its 1-based position
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        for pos, v in enumerate(values, start=1):
            _integer(v, error, what, where.format(pos))
        raise
    if low is not None and out and (min(out) < low or high is not None
                                    and max(out) > high):
        for pos, v in enumerate(out, start=1):
            _integer(v, error, what, where.format(pos), low=low, high=high)
    return out


def _guard(what: str, value: int, cap: int = DENSE_DIM_GUARD):
    # ResourceGuardError "<what> <value> exceeds guard <cap>" past the cap
    if value > cap:
        raise ResourceGuardError(f"{what} {value} exceeds guard {cap}")


def _finite(value, what: str) -> float:
    # a tolerance: value as a float, finite and >= 0, else ValidationError
    # "<what> <value!r> is not a finite number >= 0" (also for no number)
    try:
        ok = math.isfinite(value) and value >= 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"{what} {value!r} is not a finite number >= 0")
    return float(value)


def _entries(value, error, what: str) -> tuple:
    # the entries of an iterable, else error "<what> <value> is not a sequence"
    try:
        return tuple(value)
    except TypeError:
        raise error(f"{what} {value!r} is not a sequence") from None
