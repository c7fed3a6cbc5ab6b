"""Exception types shared across the package, each with its CLI ``code``."""

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
