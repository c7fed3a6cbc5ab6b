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

Parsing is linear in the length of the text:

- One pass of a compiled regex (``findall``) returns the tokens as
  plain strings.  Token offsets, and from them line and column, are
  recovered by scanning again only when a :class:`ParseError` is
  raised; so is the first character that starts no token, which is
  reported ahead of any other error.
- A chain of ``E`` atoms is kept as one ``(dims, rows, cols)`` index
  tuple with coefficient 1; no element exists for it until the sum is
  built.  Chains that contain a group, and ``*`` products, take the
  element path (``elem_tensor``, ``AlgebraElement.__mul__``).
- All terms of a sum merge once, as the constructor merges them: each
  term appends its index rows and coefficients (its scalar and a ``-``
  applied as complex products, ``-`` as the scalar ``complex(-1.0)``,
  nothing pruned), and the sum is one canonical merge of that list, so
  a flat sum has exactly the value ``AlgebraElement(sig, terms)`` gives.
  A group or ``*`` product is merged and pruned on its own first.  The
  merge skips the constructor's per-term range check: ``parse_unit``
  checked every index as it read it.

State syntax: ``;``-separated factor specs, each either ``diag(x1,...,xk)``
(a diagonal density) or ``file:PATH`` (a JSON array of row-major complex
matrices, each contributing one factor; entries are numbers or [re, im]
pairs).

Errors carry 1-based line/column positions.
"""

from __future__ import annotations

import cmath
import itertools
import json
import re

import numpy as np

from .algebra import (
    AlgebraElement,
    Signature,
    _MAX_FACTOR_DIM,
    _cmul,
    _listed,
    elem_tensor,
    matrix_unit,
)
from .errors import (
    IndexRangeError,
    ParseError,
    SignatureError,
    ValidationError,
)

__all__ = [
    "parse_element",
    "format_element",
    "parse_state",
    "format_complex",
]


# One token: the tensor operator (only spaces and tabs inside), a number,
# or a one-character token.  Whitespace (``\s`` is ``str.isspace``)
# separates tokens.
_TOKEN = r"\([ \t]*x[ \t]*\)|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|[][(),+\-*E]"
# The scan also yields every other non-space character as a token of its
# own.  No grammar rule accepts one, so a parse that reaches the end saw
# none, and they are looked for only once a ParseError is raised.
_SCAN_RE = re.compile(_TOKEN + r"|\S")
# Longest prefix of the text that splits into whitespace and tokens.
_TOKENS_PREFIX_RE = re.compile(rf"(?:\s+|{_TOKEN})*")
# End of input.  The token list is padded with it for as many tokens as
# an E atom spans, so looking ahead over one atom stays in range.
_END = ""
_LOOKAHEAD = 9

# The coefficient of an E chain, and the scalar of ``-``.  Scalars are
# applied as complex products, as element scaling does (an infinite part
# makes its partner nan), so signed zeros, inf and nan come out the same.
_ONE = 1 + 0j
_NEG = complex(-1.0)


def _is_tensor(tok: str) -> bool:
    return len(tok) > 1 and tok[0] == "("


def _is_number(tok: str) -> bool:
    return tok[:1].isdecimal()  # exactly the characters ``\d`` matches


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _shown(tok: str) -> str:
    # a token as an error names it: the tensor operator as "(x)", whatever
    # spaces it has inside
    if _is_tensor(tok):
        return "(x)"
    return tok if tok != _END else "end of input"


def _as_element(chain) -> AlgebraElement:
    return chain if isinstance(chain, AlgebraElement) else matrix_unit(*chain)


# Deepest parenthesised group; each level costs a handful of stack frames.
_MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token strings, by index.

    The scalar test looks ahead instead of backtracking.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _SCAN_RE.findall(text) + [_END] * _LOOKAHEAD
        self.i = 0
        self.depth = 0

    def error(self, message: str, at: int) -> ParseError:
        """A ParseError located at token ``at``."""
        found = next(itertools.islice(_SCAN_RE.finditer(self.text), at, None),
                     None)
        pos = found.start() if found is not None else len(self.text)
        return ParseError(message, *_line_col(self.text, pos))

    def expect(self, tok: str, what: str) -> None:
        got = self.toks[self.i]
        if got != tok:
            raise self.error(f"expected {what}, found {_shown(got)!r}", self.i)
        self.i += 1

    def parse_nat(self, what: str) -> int:
        tok = self.toks[self.i]
        if not _is_number(tok):
            raise self.error(f"expected {what}, found {_shown(tok)!r}", self.i)
        if not tok.isdecimal():
            raise self.error(f"expected integer {what}, found {tok!r}", self.i)
        try:
            value = int(tok)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise self.error(f"{what} has {len(tok)} digits", self.i) from None
        self.i += 1
        return value

    def real_at(self, i: int) -> tuple[float, int] | None:
        """``['+'|'-'] number`` at token ``i``: its value and the next index."""
        toks = self.toks
        sign = 1.0
        if toks[i] in ("+", "-"):
            if toks[i] == "-":
                sign = -1.0
            i += 1
        if not _is_number(toks[i]):
            return None
        return sign * float(toks[i]), i + 1

    def try_scalar_prefix(self) -> complex | None:
        """Parse ``scalar '*'`` if present; leave the position and return
        None if not."""
        toks = self.toks
        if toks[self.i] == "(":
            re_part = self.real_at(self.i + 1)
            if re_part is None or toks[re_part[1]] != ",":
                return None
            im_part = self.real_at(re_part[1] + 1)
            if im_part is None or toks[im_part[1]] != ")":
                return None
            value, i = complex(re_part[0], im_part[0]), im_part[1] + 1
        else:
            real = self.real_at(self.i)
            if real is None:
                return None
            value, i = complex(real[0]), real[1]
        if toks[i] != "*":
            return None
        self.i = i + 1
        return value

    def parse_unit(self) -> tuple[int, int, int]:
        """The atom ``E[n](j,k)`` at the current token, as checked ``(n, j, k)``."""
        toks, i = self.toks, self.i
        size, row, col = toks[i + 2], toks[i + 5], toks[i + 7]
        if (toks[i + 1] == "[" and toks[i + 3] == "]" and toks[i + 4] == "("
                and toks[i + 6] == "," and toks[i + 8] == ")"
                and size.isdecimal() and row.isdecimal()
                and col.isdecimal()):
            try:
                size, row, col = int(size), int(row), int(col)
            except ValueError:  # too many digits; reported below
                pass
            else:
                if (2 <= size < _MAX_FACTOR_DIM and 1 <= row <= size
                        and 1 <= col <= size):
                    self.i = i + 9
                    return size, row, col
        # Malformed or out of range: read it token by token for the error.
        self.i += 1
        self.expect("[", "'['")
        size = self.parse_nat("matrix size")
        self.expect("]", "']'")
        self.expect("(", "'('")
        row = self.parse_nat("row index")
        self.expect(",", "','")
        col = self.parse_nat("column index")
        self.expect(")", "')'")
        try:
            matrix_unit(size, row, col)
        except (SignatureError, IndexRangeError) as exc:
            raise self.error(str(exc), i) from exc
        return size, row, col

    def parse_group(self) -> AlgebraElement:
        tok = self.toks[self.i]
        if tok != "(":
            raise self.error(f"expected 'E[' or '(', found {_shown(tok)!r}",
                             self.i)
        if self.depth == _MAX_NESTING:
            raise self.error(f"parentheses nested deeper than {_MAX_NESTING}",
                             self.i)
        self.i += 1
        self.depth += 1
        inner = self.parse_expr()
        self.depth -= 1
        self.expect(")", "')'")
        return inner

    def parse_chain(self):
        """A chain: an index tuple ``(dims, rows, cols)`` if it has only
        ``E`` atoms, else an element."""
        toks = self.toks
        units = []  # the leading run of E atoms, as (n, j, k)
        out = None
        while True:
            if toks[self.i] == "E":
                unit = self.parse_unit()
                if out is None:
                    units.append(unit)
                else:  # one at a time: each tensor factor 1+0j can add a nan
                    out = elem_tensor(out, matrix_unit(*unit))
            else:
                group = self.parse_group()
                if out is not None:
                    out = elem_tensor(out, group)
                elif units:
                    out = elem_tensor(matrix_unit(*zip(*units)), group)
                else:
                    out = group
            if not _is_tensor(toks[self.i]):
                break
            self.i += 1
        return tuple(zip(*units)) if out is None else out

    def parse_product(self):
        start = self.i
        out = self.parse_chain()
        if self.toks[self.i] != "*":
            return out
        out = _as_element(out)
        while self.toks[self.i] == "*":
            self.i += 1
            rhs = _as_element(self.parse_chain())
            if rhs.sig != out.sig:
                raise self.error(
                    f"product of mismatched signatures {out.sig.dims} and "
                    f"{rhs.sig.dims}", start)
            out = out * rhs
        return out

    def parse_term(self, rows: list, cols: list, coeffs: list,
                   negate: bool) -> tuple:
        """Append a term's index rows and coefficients, its scalar and
        ``-`` applied, nothing pruned; return its signature's dims."""
        scalar = self.try_scalar_prefix()
        out = self.parse_product()
        if isinstance(out, AlgebraElement):
            coeff = out.coeff
            with np.errstate(over="ignore", invalid="ignore"):
                if scalar is not None:
                    coeff = _cmul(scalar, coeff)
                if negate:
                    coeff = _cmul(_NEG, coeff)
            rows += out.rows.tolist()
            cols += out.cols.tolist()
            coeffs += coeff.tolist()
            return out.sig.dims
        dims, row, col = out
        coeff = _ONE if scalar is None else scalar * _ONE
        rows.append(row)
        cols.append(col)
        coeffs.append(_NEG * coeff if negate else coeff)
        return dims

    def parse_expr(self) -> AlgebraElement:
        toks = self.toks
        rows, cols, coeffs = [], [], []
        dims = self.parse_term(rows, cols, coeffs, False)
        while toks[self.i] in ("+", "-"):
            op = self.i
            self.i += 1
            rhs_dims = self.parse_term(rows, cols, coeffs, toks[op] == "-")
            if rhs_dims != dims:
                raise self.error(
                    f"term signature {rhs_dims} differs from {dims}", op)
        return _listed(Signature(dims), rows, cols, coeffs)


def parse_element(text: str) -> AlgebraElement:
    """Parse an element expression; see the module docstring for the grammar.

    The result is in canonical form.  Syntax problems raise
    :class:`ParseError` with position; out-of-range indices, cross-term
    signature mismatches and groups nested deeper than 100 are reported
    the same way.
    """
    parser = _Parser(text)
    try:
        out = parser.parse_expr()
        tok = parser.toks[parser.i]
        if tok != _END:
            raise parser.error(f"unexpected trailing input {tok!r}", parser.i)
    except ParseError:
        # A character that starts no token is reported first, wherever it is.
        end = _TOKENS_PREFIX_RE.match(text).end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}",
                             *_line_col(text, end)) from None
        raise
    return out


def _format_float(x: float) -> str:
    return repr(float(x))


def format_complex(value: complex) -> str:
    return f"({_format_float(value.real)},{_format_float(value.imag)})"


def format_element(x: AlgebraElement) -> str:
    """Deterministic text form; with finite coefficients it parses back to
    the identical term map.

    Terms are sorted lexicographically by index; every coefficient other
    than an exact 1 is printed as a full-precision (re,im) scalar.  The
    grammar has no spelling for inf or nan, so a non-finite coefficient
    raises :class:`ValidationError` naming the first such term.
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
        elif not cmath.isfinite(coeff):
            raise ValidationError(
                f"term {chain} has the non-finite coefficient "
                f"{format_complex(coeff)}, which has no text form")
        else:
            parts.append(f"{format_complex(coeff)}*{chain}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# state syntax
# ---------------------------------------------------------------------------

_DIAG_RE = re.compile(r"diag\(([^)]*)\)\Z")


def _json_entry_to_complex(entry) -> complex:
    # JSON true/false (bool) are no numbers; an int past float range overflows
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if all(type(p) in (int, float) for p in parts):
        try:
            return complex(*parts)
        except OverflowError:
            pass
    raise ParseError(f"matrix entry {entry!r} is not a number in float range "
                     f"or an [re, im] pair of such")


def _factors_from_file(path: str) -> list[DensityFactor]:
    from .states import DensityFactor

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
    # states is imported here, so that parsing an element never loads it
    from .states import DensityFactor, ProductStateTrunc

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
