"""Surface syntax for algebra elements and product states.

Element grammar (whitespace between tokens is ignored)::

    expr    := term (('+' | '-') term)*
    term    := [scalar '*'] product
    product := chain ('*' chain)*
    chain   := atom (' (x) ' atom)*
    atom    := 'E[' nat '](' nat ',' nat ')' | '(' expr ')'
    scalar  := real | '(' real ',' real ')'        -- (re, im)
    real    := ['+' | '-'] unsigned decimal, optional exponent

``E[n](j,k)`` is the n x n matrix unit with a one in row j, column k
(1-based); ``(x)`` is the tensor operator, so a chain's signature is the
list of its atoms' sizes in order.  All terms of a sum must produce the
same signature.  The ``'*'`` between chains is the algebra product —
this is the one place the syntax goes past plain linear combinations.

State syntax: ``;``-separated factor specs, each either ``diag(x1,...,xk)``
(a diagonal density) or ``file:PATH`` (a JSON array of row-major complex
matrices, each contributing one factor; entries are numbers or [re, im]
pairs).

Errors carry 1-based line/column positions.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, elem_tensor, matrix_unit
from .errors import IndexRangeError, ParseError, SignatureError
from .states import DensityFactor, ProductStateTrunc

__all__ = [
    "parse_element",
    "format_element",
    "parse_state",
    "format_complex",
]


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_SIMPLE_TOKENS = {
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    ")": "RPAREN",
}


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def advance(count: int):
        nonlocal i, line, col
        for _ in range(count):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch.isspace():
            advance(1)
            continue
        start_line, start_col = line, col
        if ch == "(":
            # '(x)' is the tensor operator; a lone '(' opens a group
            j = i + 1
            while j < n and text[j] in " \t":
                j += 1
            if j < n and text[j] == "x":
                k = j + 1
                while k < n and text[k] in " \t":
                    k += 1
                if k < n and text[k] == ")":
                    tokens.append(Token("TENSOR", "(x)", start_line, start_col))
                    advance(k + 1 - i)
                    continue
            tokens.append(Token("LPAREN", "(", start_line, start_col))
            advance(1)
            continue
        if ch in _SIMPLE_TOKENS:
            tokens.append(Token(_SIMPLE_TOKENS[ch], ch, start_line, start_col))
            advance(1)
            continue
        if ch == "E":
            tokens.append(Token("E", "E", start_line, start_col))
            advance(1)
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(Token("NUMBER", m.group(), start_line, start_col))
            advance(len(m.group()))
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("END", "", line, col))
    return tokens


# Deepest parenthesised group; each level costs a handful of stack frames.
_MAX_NESTING = 100


class _Parser:
    """Recursive descent with token-index backtracking for the scalar test."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.value if tok.kind != "END" else "end of input"
            raise ParseError(f"expected {what}, found {shown!r}",
                             tok.line, tok.col)
        return self.next()

    def parse_nat(self, what: str) -> int:
        tok = self.expect("NUMBER", what)
        if not tok.value.isdigit():
            raise ParseError(f"expected integer {what}, found {tok.value!r}",
                             tok.line, tok.col)
        try:
            return int(tok.value)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ParseError(f"{what} has {len(tok.value)} digits",
                             tok.line, tok.col) from None

    def parse_real(self) -> float:
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            if self.next().kind == "MINUS":
                sign = -1.0
        tok = self.expect("NUMBER", "a number")
        return sign * float(tok.value)

    def try_scalar_prefix(self) -> complex | None:
        """Parse ``scalar '*'`` if present; rewind and return None if not."""
        saved = self.pos
        try:
            kind = self.peek().kind
            if kind in ("PLUS", "MINUS", "NUMBER"):
                value = complex(self.parse_real())
            elif kind == "LPAREN":
                self.next()
                re_part = self.parse_real()
                self.expect("COMMA", "','")
                im_part = self.parse_real()
                self.expect("RPAREN", "')'")
                value = complex(re_part, im_part)
            else:
                return None
            if self.peek().kind != "STAR":
                self.pos = saved
                return None
            self.next()
            return value
        except ParseError:
            self.pos = saved
            return None

    def parse_atom(self) -> AlgebraElement:
        tok = self.peek()
        if tok.kind == "E":
            self.next()
            self.expect("LBRACKET", "'['")
            size = self.parse_nat("matrix size")
            self.expect("RBRACKET", "']'")
            self.expect("LPAREN", "'('")
            row = self.parse_nat("row index")
            self.expect("COMMA", "','")
            col = self.parse_nat("column index")
            self.expect("RPAREN", "')'")
            try:
                return matrix_unit(size, row, col)
            except (SignatureError, IndexRangeError) as exc:
                raise ParseError(str(exc), tok.line, tok.col) from exc
        if tok.kind == "LPAREN":
            if self.depth == _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING}",
                    tok.line, tok.col,
                )
            self.next()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect("RPAREN", "')'")
            return inner
        shown = tok.value if tok.kind != "END" else "end of input"
        raise ParseError(f"expected 'E[' or '(', found {shown!r}",
                         tok.line, tok.col)

    def parse_chain(self) -> AlgebraElement:
        out = self.parse_atom()
        while self.peek().kind == "TENSOR":
            self.next()
            out = elem_tensor(out, self.parse_atom())
        return out

    def parse_product(self) -> AlgebraElement:
        tok = self.peek()
        out = self.parse_chain()
        while self.peek().kind == "STAR":
            self.next()
            rhs = self.parse_chain()
            if rhs.sig != out.sig:
                raise ParseError(
                    f"product of mismatched signatures {out.sig.dims} and "
                    f"{rhs.sig.dims}", tok.line, tok.col
                )
            out = out * rhs
        return out

    def parse_term(self) -> AlgebraElement:
        scalar = self.try_scalar_prefix()
        out = self.parse_product()
        if scalar is not None:
            out = scalar * out
        return out

    def parse_expr(self) -> AlgebraElement:
        tok = self.peek()
        out = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next()
            rhs = self.parse_term()
            if rhs.sig != out.sig:
                raise ParseError(
                    f"term signature {rhs.sig.dims} differs from "
                    f"{out.sig.dims}", op.line, op.col
                )
            out = out + rhs if op.kind == "PLUS" else out - rhs
        return out


def parse_element(text: str) -> AlgebraElement:
    """Parse an element expression; see the module docstring for the grammar.

    The result is in canonical form.  Syntax problems raise
    :class:`ParseError` with position; out-of-range indices, cross-term
    signature mismatches and groups nested deeper than 100 are reported
    the same way.
    """
    parser = _Parser(_tokenize(text))
    out = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError(f"unexpected trailing input {tok.value!r}",
                         tok.line, tok.col)
    return out


def _format_float(x: float) -> str:
    return repr(float(x))


def format_complex(value: complex) -> str:
    return f"({_format_float(value.real)},{_format_float(value.imag)})"


def format_element(x: AlgebraElement) -> str:
    """Deterministic text form; parses back to the identical term map.

    Terms are sorted lexicographically by index; every coefficient other
    than an exact 1 is printed as a full-precision (re,im) scalar.
    """
    if x.is_zero:
        chain = " (x) ".join(f"E[{d}](1,1)" for d in x.sig.dims)
        return f"(0.0,0.0)*{chain}"
    parts = []
    for (rows, cols), coeff in x.sorted_terms():
        chain = " (x) ".join(
            f"E[{d}]({j},{k})" for d, j, k in zip(x.sig.dims, rows, cols)
        )
        if coeff == 1:
            parts.append(chain)
        else:
            parts.append(f"{format_complex(coeff)}*{chain}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# state syntax
# ---------------------------------------------------------------------------

_DIAG_RE = re.compile(r"diag\(([^)]*)\)\Z")


def _json_entry_to_complex(entry) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (isinstance(entry, list) and len(entry) == 2
            and all(isinstance(p, (int, float)) for p in entry)):
        return complex(entry[0], entry[1])
    raise ParseError(
        f"matrix entry {entry!r} is not a number or [re, im] pair"
    )


def _factors_from_file(path: str) -> list[DensityFactor]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(data, list) or not data:
        raise ParseError(f"{path}: expected a non-empty JSON array of matrices")
    factors = []
    for pos, matrix in enumerate(data, start=1):
        if not (isinstance(matrix, list)
                and all(isinstance(row, list) for row in matrix)):
            raise ParseError(f"{path}: matrix {pos} is not an array of rows")
        if len({len(row) for row in matrix}) > 1:
            raise ParseError(f"{path}: matrix {pos} has rows of different "
                             f"lengths")
        rows = [[_json_entry_to_complex(e) for e in row] for row in matrix]
        factors.append(DensityFactor(np.array(rows, dtype=complex)))
    return factors


def parse_state(text: str) -> ProductStateTrunc:
    """Parse ``;``-separated factor specs into a product state.

    ``diag(x1,...,xk)`` gives one diagonal factor; ``file:PATH`` loads a
    JSON array of row-major complex matrices, one factor per matrix.
    Density validation errors propagate.
    """
    factors: list[DensityFactor] = []
    for raw in text.split(";"):
        part = raw.strip()
        if not part:
            raise ParseError("empty factor spec in state")
        if part.startswith("file:"):
            factors.extend(_factors_from_file(part[5:].strip()))
            continue
        m = _DIAG_RE.match(part)
        if m:
            try:
                values = [float(v) for v in m.group(1).split(",")]
            except ValueError as exc:
                raise ParseError(
                    f"bad diagonal entry in {part!r}"
                ) from exc
            factors.append(DensityFactor.diagonal(values))
            continue
        raise ParseError(
            f"factor spec {part!r} is neither diag(...) nor file:PATH"
        )
    return ProductStateTrunc(factors)
