"""Exception types shared across the package."""

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


class SignatureError(UhfError, ValueError):
    """Signatures disagree or are malformed for the requested operation."""


class IndexRangeError(UhfError, ValueError):
    """A matrix-unit index lies outside the dimension of its factor."""


class ValidationError(UhfError, ValueError):
    """A domain value (density factor, atom label, ...) violates its contract."""


class ResourceGuardError(UhfError, RuntimeError):
    """A dense materialization would exceed the configured size guard."""


class GramMismatchError(UhfError, ArithmeticError):
    """Two cyclic vectors that must agree differ, so the intertwiner
    would not intertwine them.  Signals a bug in the caller's data, not a
    property of the construction."""


class ParseError(UhfError, ValueError):
    """Syntax or consistency error in expression text, with location."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col
