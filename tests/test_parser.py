"""Element expression grammar and the state spec syntax."""

import json
import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uhfkron.algebra import AlgebraElement, elem_tensor, matrix_unit
from uhfkron.errors import (
    IndexRangeError,
    ParseError,
    SignatureError,
    ValidationError,
)
from uhfkron.parser import (
    format_element,
    parse_element,
    parse_state,
)
from uhfkron.states import state_evaluate
from uhfkron.sweeps import random_element, to_dense

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_parse_single_unit():
    x = parse_element("E[2](1,2)")
    assert x == matrix_unit(2, 1, 2)


def test_parse_witness_expression():
    x = parse_element("E[4](2,2) - E[4](3,3)")
    assert x == matrix_unit(4, 2, 2) - matrix_unit(4, 3, 3)
    # whitespace-insensitive
    assert parse_element("E[4](2,2)-E[4](3,3)") == x
    assert parse_element("  E[4]( 2 , 2 )   -   E[4](3,3) ") == x


def test_parse_tensor_chain():
    x = parse_element("E[2](1,2) (x) E[2](2,1)")
    assert x == elem_tensor(matrix_unit(2, 1, 2), matrix_unit(2, 2, 1))
    assert x.sig.dims == (2, 2)
    y = parse_element("E[2](1,1) (x) E[3](2,3) (x) E[2](2,2)")
    assert y.sig.dims == (2, 3, 2)


def test_parse_scalars():
    x = parse_element("2*E[2](1,1)")
    assert x == 2.0 * matrix_unit(2, 1, 1)
    x = parse_element("-1.5*E[2](1,1)")
    assert x == -1.5 * matrix_unit(2, 1, 1)
    x = parse_element("(0.0,1.0)*E[2](1,2)")
    assert x == 1j * matrix_unit(2, 1, 2)
    x = parse_element("(2.5,-0.5)*E[2](1,2) + 3e-1*E[2](2,1)")
    assert x == (2.5 - 0.5j) * matrix_unit(2, 1, 2) + 0.3 * matrix_unit(2, 2, 1)


def test_parse_parenthesized_groups():
    x = parse_element("(E[2](1,1) + E[2](2,2)) (x) E[2](1,2)")
    expected = elem_tensor(
        matrix_unit(2, 1, 1) + matrix_unit(2, 2, 2), matrix_unit(2, 1, 2)
    )
    assert x == expected
    # a parenthesized complex scalar is distinguished from a group by the '*'
    y = parse_element("(2.0,0.0)*(E[2](1,1) + E[2](2,2))")
    assert y == 2.0 * (matrix_unit(2, 1, 1) + matrix_unit(2, 2, 2))


def test_parse_chain_products():
    x = parse_element("E[2](1,2)*E[2](2,1)")
    assert x == matrix_unit(2, 1, 1)
    y = parse_element("2*E[2](1,2)*E[2](2,2)")
    assert y == 2.0 * matrix_unit(2, 1, 2)
    z = parse_element("(E[2](1,1)+E[2](1,2))*E[2](1,1)")
    assert z == matrix_unit(2, 1, 1)


def test_parse_errors_with_position():
    with pytest.raises(ParseError) as err:
        parse_element("E[2](1,2) + Q")
    assert err.value.col == 13
    with pytest.raises(ParseError, match="row index 3 exceeds"):
        parse_element("E[2](3,1)")
    with pytest.raises(ParseError, match="trailing"):
        parse_element("E[2](1,1) E[2](2,2)")
    with pytest.raises(ParseError, match="integer"):
        parse_element("E[2.5](1,1)")
    with pytest.raises(ParseError):
        parse_element("")
    with pytest.raises(ParseError, match="end of input"):
        parse_element("E[2](1,2) +")
    with pytest.raises(ParseError, match="nested deeper"):
        parse_element("(" * 2000 + "E[2](1,1)" + ")" * 2000)
    with pytest.raises(ParseError, match="5000 digits"):
        parse_element("E[2](1," + "1" * 5000 + ")")


def test_parse_nesting_limit_boundary():
    from uhfkron.parser import _MAX_NESTING

    depth = _MAX_NESTING
    x = parse_element("(" * depth + "E[2](1,2)" + ")" * depth)
    assert x == matrix_unit(2, 1, 2)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_element("(" * (depth + 1) + "E[2](1,2)" + ")" * (depth + 1))


def test_parse_signature_consistency():
    with pytest.raises(ParseError, match="signature"):
        parse_element("E[2](1,1) + E[3](1,1)")
    with pytest.raises(ParseError, match="signature"):
        parse_element("E[2](1,1) (x) E[2](1,1) + E[4](1,1)")
    with pytest.raises(ParseError, match="mismatched"):
        parse_element("E[2](1,1)*E[3](1,1)")


def test_format_round_trip_simple():
    x = matrix_unit(4, 2, 2) - matrix_unit(4, 3, 3)
    text = format_element(x)
    assert parse_element(text).terms == x.terms


def test_format_zero_keeps_signature():
    x = matrix_unit(2, 1, 1) - matrix_unit(2, 1, 1)
    out = parse_element(format_element(x))
    assert out.is_zero
    assert out.sig.dims == (2,)


def test_format_is_sorted_and_deterministic():
    x = matrix_unit(2, 2, 1) + matrix_unit(2, 1, 2)
    text = format_element(x)
    assert text.index("E[2](1,2)") < text.index("E[2](2,1)")
    assert format_element(x) == text


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=40, deadline=None)
def test_format_round_trip_random(seed, n_terms):
    x = random_element((2, 3), rng=seed, n_terms=n_terms)
    y = parse_element(format_element(x))
    assert y.sig == x.sig
    assert y.terms == x.terms


def test_format_refuses_non_finite_coefficients():
    x = parse_element("E[2](1,2) + 1e400*E[2](1,1) + (0.0,1e400)*E[2](2,2)")
    with pytest.raises(ValidationError, match=re.escape(
            "term E[2](1,1) has the non-finite coefficient (inf,nan)")):
        format_element(x)
    y = AlgebraElement((2, 2), {((1, 2), (2, 1)): complex(1.0, -math.inf),
                                ((1, 1), (1, 1)): 1.0})
    with pytest.raises(ValidationError, match=re.escape(
            "term E[2](1,2) (x) E[2](2,1) has the non-finite coefficient "
            "(1.0,-inf)")):
        format_element(y)


_finite_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1e-14, 1.5e308, -1.5e308, 5e-324]))


@st.composite
def _finite_elements(draw):
    dims = draw(st.sampled_from([(2,), (3,), (2, 3), (2, 2, 2)]))
    index = st.tuples(*(st.integers(1, d) for d in dims))
    coeff = st.builds(complex, _finite_parts, _finite_parts)
    items = draw(st.lists(st.tuples(st.tuples(index, index), coeff),
                          max_size=8))
    return AlgebraElement(dims, items)


@given(_finite_elements())
@settings(max_examples=200, deadline=None)
def test_format_round_trip_finite_elements(x):
    assume(np.isfinite(x.coeff).all())  # repeated indices may overflow
    y = parse_element(format_element(x))
    assert y.sig == x.sig
    assert sorted((idx, v.real.hex(), v.imag.hex())
                  for idx, v in y.terms.items()) == sorted(
        (idx, v.real.hex(), v.imag.hex()) for idx, v in x.terms.items())


def test_parse_refuses_a_factor_dimension_past_int64_indices():
    with pytest.raises(ParseError, match=r"position 1 is >= 2\*\*62 "
                                         r"\(line 1, column 15\)"):
        parse_element("E[2](1,1) (x) E[4611686018427387904](1,1)")
    x = parse_element("E[4611686018427387903](4611686018427387903,1)")
    assert x.rows.tolist() == [[2**62 - 1]]


# ---------------------------------------------------------------------------
# state specs
# ---------------------------------------------------------------------------

def test_parse_state_diag():
    S = parse_state("diag(1,0)")
    np.testing.assert_array_equal(S.factors[0].matrix, np.diag([1.0, 0.0]))
    S = parse_state("diag(0.5,0.5); diag(0.2,0.3,0.5)")
    assert S.sig.dims == (2, 3)


def test_parse_state_validates_densities():
    with pytest.raises(ValidationError):
        parse_state("diag(0.5,0.6)")
    with pytest.raises(ParseError):
        parse_state("diag(0.5,oops)")
    with pytest.raises(ParseError):
        parse_state("gibberish")
    with pytest.raises(ParseError):
        parse_state("diag(1,0);")


def test_parse_state_file(tmp_path):
    path = tmp_path / "state.json"
    payload = [
        [[0.5, [0.0, 0.25]], [[0.0, -0.25], 0.5]],
        [[1.0, 0.0], [0.0, 0.0]],
    ]
    path.write_text(json.dumps(payload), encoding="utf-8")
    S = parse_state(f"file:{path}")
    assert S.sig.dims == (2, 2)
    assert S.factors[0].matrix[0, 1] == 0.25j

    mixed = parse_state(f"diag(1,0); file:{path}")
    assert mixed.sig.dims == (2, 2, 2)


def test_parse_state_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[["x", 0], [0, 1]]]), encoding="utf-8")
    with pytest.raises(ParseError, match="entry"):
        parse_state(f"file:{path}")
    path.write_text(json.dumps({}), encoding="utf-8")
    with pytest.raises(ParseError, match="array"):
        parse_state(f"file:{path}")
    path.write_text(json.dumps([1]), encoding="utf-8")
    with pytest.raises(ParseError, match="not an array of rows"):
        parse_state(f"file:{path}")
    path.write_text(json.dumps([[1, 0], [0, 0]]), encoding="utf-8")
    with pytest.raises(ParseError, match="not an array of rows"):
        parse_state(f"file:{path}")
    path.write_text(json.dumps([[[1, 0], [0]]]), encoding="utf-8")
    with pytest.raises(ParseError, match="different lengths"):
        parse_state(f"file:{path}")
    for text in ("[[[1, 0]", "[" * 100000):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="not a JSON document"):
            parse_state(f"file:{path}")


def test_parsed_witness_evaluates():
    # end-to-end: parse both the states and the element, then evaluate
    S = parse_state("diag(1,0)")
    R = parse_state("diag(0,1)")
    from uhfkron.states import state_boxtimes

    x = parse_element("E[4](2,2) - E[4](3,3)")
    assert state_evaluate(state_boxtimes(S, R), x) == 1.0
    assert state_evaluate(state_boxtimes(R, S), x) == -1.0


def test_parse_dense_oracle():
    x = parse_element("(0.0,2.0)*E[2](1,2) (x) E[3](3,1) + E[2](1,1) (x) E[3](2,2)")
    d = to_dense(x)
    expected = 2j * np.kron(
        to_dense(matrix_unit(2, 1, 2)), to_dense(matrix_unit(3, 3, 1))
    ) + np.kron(to_dense(matrix_unit(2, 1, 1)), to_dense(matrix_unit(3, 2, 2)))
    np.testing.assert_allclose(d, expected)


# ---------------------------------------------------------------------------
# error positions on input with several lines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,message,line,col", [
    ("E[2](1,1) +\n\tQ", "unexpected character 'Q'", 2, 2),
    ("E[2](1,1) +\r\n  E[2](1,)", "expected column index, found ')'", 2, 10),
    ("E[2](1,1) +\n", "expected 'E[' or '(', found 'end of input'", 2, 1),
    ("E[2](1,1)\n+ E[2](2,2)\n  - E[3](1,1)",
     "term signature (3,) differs from (2,)", 3, 3),
    ("E[2](1,1) +\n   E[2](1,3)",
     "column index 3 exceeds dimension 2 at factor 1", 2, 4),
    ("(E[2](1,1)\r\n + E[3](1,1))", "term signature (3,) differs from (2,)",
     2, 2),
    ("E[2](1,1) +\n (\n E[2](1,1)", "expected ')', found 'end of input'",
     3, 11),
])
def test_parse_error_positions_multiline(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_element(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        message, line, col)


def test_unexpected_character_reported_before_parse_errors():
    # the stray character comes after a syntax and a range error
    with pytest.raises(ParseError) as err:
        parse_element("E[2](3,1) + E[2](1 1)\n  + E[2](1,1) $")
    assert (err.value.message, err.value.line, err.value.col) == (
        "unexpected character '$'", 2, 15)


# ---------------------------------------------------------------------------
# linear cost, shown by counting constructions (no timing)
# ---------------------------------------------------------------------------

def test_flat_sum_constructs_a_constant_number_of_objects(monkeypatch):
    from uhfkron import algebra

    counts = {"element": 0, "signature": 0}

    def counted(key, method):
        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(algebra.AlgebraElement, "__init__",
                        counted("element", algebra.AlgebraElement.__init__))
    monkeypatch.setattr(algebra.Signature, "__post_init__",
                        counted("signature", algebra.Signature.__post_init__))

    def counts_at(n):
        # term t is the unit (t % 96, t // 96) of the fused 96 x 96 matrix,
        # each index split in the mixed radix (4, 6, 4)
        def digits(v):
            return v // 24 + 1, v // 4 % 6 + 1, v % 4 + 1

        text = " + ".join(
            f"({t}.5,-1.0)*" + " (x) ".join(
                f"E[{d}]({j},{k})" for d, j, k in
                zip((4, 6, 4), digits(t % 96), digits(t // 96)))
            for t in range(n))
        counts.update(element=0, signature=0)
        x = parse_element(text)
        assert len(x) == n
        return dict(counts)

    assert counts_at(10) == counts_at(1000)


# ---------------------------------------------------------------------------
# differential test against an element-per-atom reference
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_REF_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_REF_SIMPLE_TOKENS = {"[": "LBRACKET", "]": "RBRACKET", ",": "COMMA",
                      "+": "PLUS", "-": "MINUS", "*": "STAR", ")": "RPAREN"}
_REF_MAX_NESTING = 100


def _ref_tokenize(text):
    """Character-by-character tokenizer with running line and column."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def advance(count):
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
            j = i + 1
            while j < n and text[j] in " \t":
                j += 1
            if j < n and text[j] == "x":
                k = j + 1
                while k < n and text[k] in " \t":
                    k += 1
                if k < n and text[k] == ")":
                    tokens.append(_Token("TENSOR", "(x)", start_line,
                                         start_col))
                    advance(k + 1 - i)
                    continue
            tokens.append(_Token("LPAREN", "(", start_line, start_col))
            advance(1)
            continue
        if ch in _REF_SIMPLE_TOKENS:
            tokens.append(_Token(_REF_SIMPLE_TOKENS[ch], ch, start_line,
                                 start_col))
            advance(1)
            continue
        if ch == "E":
            tokens.append(_Token("E", "E", start_line, start_col))
            advance(1)
            continue
        m = _REF_NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), start_line, start_col))
            advance(len(m.group()))
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line,
                         start_col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _RefParser:
    """Recursive descent that builds an element per atom, and one element
    per sum from all its terms' items by the constructor."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.value if tok.kind != "END" else "end of input"
            raise ParseError(f"expected {what}, found {shown!r}",
                             tok.line, tok.col)
        return self.next()

    def parse_nat(self, what):
        tok = self.expect("NUMBER", what)
        if not tok.value.isdigit():
            raise ParseError(f"expected integer {what}, found {tok.value!r}",
                             tok.line, tok.col)
        try:
            return int(tok.value)
        except ValueError:
            raise ParseError(f"{what} has {len(tok.value)} digits",
                             tok.line, tok.col) from None

    def parse_real(self):
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            if self.next().kind == "MINUS":
                sign = -1.0
        tok = self.expect("NUMBER", "a number")
        return sign * float(tok.value)

    def try_scalar_prefix(self):
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

    def parse_atom(self):
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
            if self.depth == _REF_MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_REF_MAX_NESTING}",
                    tok.line, tok.col)
            self.next()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect("RPAREN", "')'")
            return inner
        shown = tok.value if tok.kind != "END" else "end of input"
        raise ParseError(f"expected 'E[' or '(', found {shown!r}",
                         tok.line, tok.col)

    def parse_chain(self):
        out = self.parse_atom()
        while self.peek().kind == "TENSOR":
            self.next()
            out = elem_tensor(out, self.parse_atom())
        return out

    def parse_product(self):
        tok = self.peek()
        out = self.parse_chain()
        while self.peek().kind == "STAR":
            self.next()
            rhs = self.parse_chain()
            if rhs.sig != out.sig:
                raise ParseError(
                    f"product of mismatched signatures {out.sig.dims} and "
                    f"{rhs.sig.dims}", tok.line, tok.col)
            out = out * rhs
        return out

    def parse_term(self):
        """A term's signature and its items, each coefficient times the
        term's scalar, unpruned."""
        scalar = self.try_scalar_prefix()
        out = self.parse_product()
        items = list(out.terms.items())
        if scalar is not None:
            items = [(idx, v * scalar) for idx, v in items]
        return out.sig, items

    def parse_expr(self):
        sig, items = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next()
            rhs_sig, rhs = self.parse_term()
            if rhs_sig != sig:
                raise ParseError(
                    f"term signature {rhs_sig.dims} differs from "
                    f"{sig.dims}", op.line, op.col)
            if op.kind == "MINUS":
                rhs = [(idx, v * complex(-1.0)) for idx, v in rhs]
            items += rhs
        return AlgebraElement(sig, items)


def _ref_parse_element(text):
    parser = _RefParser(_ref_tokenize(text))
    out = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError(f"unexpected trailing input {tok.value!r}",
                         tok.line, tok.col)
    return out


def _outcome(parse, text):
    """Everything observable of a parse: the element's signature and its
    terms in order with coefficient reprs, or the error and its place."""
    try:
        x = parse(text)
    except Exception as exc:  # compared, not handled
        return ("error", type(exc).__name__, str(exc),
                getattr(exc, "line", None), getattr(exc, "col", None))
    return (x.sig.dims,
            [(type(idx).__name__, idx.rows, idx.cols, repr(v))
             for idx, v in x.terms.items()])


_SCALARS = ["-0.0", "(0.0,-0.0)", "(-0.0,-1.5)", "1e-14", "1e-15", "5e-15",
            "1e400", "(1.5e308,1.5e308)", "-1", "2", "+0.5", "(1e400,1.0)",
            "(-1e400,1e400)", "(1.0,-1e-15)", "(-0.0,1.5)", "3.", "(0,1)"]
_SPACES = ["", "", " ", " ", "\t", "\n", "\r\n", " \n\t"]
_TENSORS = [" (x) ", "(x)", "( x )", "(\tx )", "\n(x)\r\n"]
# A typo: a stray character, a missing or doubled one, or a bad index.
_TYPOS = ["$", "x", ".", "e", "", "(", ")", "+", "*", "E[2](1,1)", "0", "3"]


@st.composite
def _element_texts(draw, max_depth=2):
    """Expressions over a few units of small factors, so that terms repeat,
    cancel and come back later; with scalars that prune, overflow and carry
    signed zeros, groups and ``*`` products mixed into chains, and
    whitespace with tabs and line breaks."""
    space = lambda: draw(st.sampled_from(_SPACES))  # noqa: E731

    def atom(d, depth):
        if depth < max_depth and draw(st.integers(0, 5)) == 0:
            return f"({space()}{expr((d,), depth + 1)}{space()})"
        j, k = draw(st.integers(1, d)), draw(st.integers(1, min(d, 2)))
        return f"E[{d}]({j},{space()}{k})"

    def chain(dims, depth):
        if (len(dims) > 1 and depth < max_depth
                and draw(st.integers(0, 7)) == 0):
            cut = draw(st.integers(1, len(dims) - 1))
            group = f"({expr(dims[:cut], depth + 1)})"
            rest = [atom(d, depth) for d in dims[cut:]]
            return draw(st.sampled_from(_TENSORS)).join([group] + rest)
        return draw(st.sampled_from(_TENSORS)).join(
            atom(d, depth) for d in dims)

    def term(dims, depth):
        out = chain(dims, depth)
        if draw(st.integers(0, 9)) == 0:
            out += f"{space()}*{space()}{chain(dims, depth)}"
        if draw(st.booleans()):
            out = f"{draw(st.sampled_from(_SCALARS))}{space()}*{space()}{out}"
        return out

    def expr(dims, depth):
        n = draw(st.integers(1, 8 if depth == 0 else 3))
        out = term(dims, depth)
        for _ in range(n - 1):
            op = draw(st.sampled_from("+--"))
            out += f"{space()}{op}{space()}{term(dims, depth)}"
        return out

    dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]))
    text = expr(dims, 0)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from(_TYPOS)) + text[at + cut:]
    return text


@given(_element_texts())
@settings(max_examples=400, deadline=None)
def test_parse_matches_element_fold(text):
    assert _outcome(parse_element, text) == _outcome(_ref_parse_element, text)


@pytest.mark.parametrize("text", [
    "E[2](1,1) - E[2](1,1) + E[2](2,2) + E[2](1,1)",
    "1e400*E[2](1,1) - 1e400*E[2](1,1)",
    "(1.5e308,1.5e308)*E[2](1,1) - (1.5e308,1.5e308)*E[2](1,1)",
    "(0.0,-0.0)*E[2](1,1) + -0.0*E[2](1,2) - (-0.0,-1.5)*E[2](2,1)",
    "1e-14*E[2](1,1) + 1e-15*E[2](1,1) + 5e-15*E[2](1,1) + 5e-15*E[2](1,1)",
    "(E[2](1,1) + (0.0,1e400)*E[2](1,1)) (x) E[2](1,1) (x) E[2](2,2)",
    "E[2](1,2) (x) (1e400*E[2](1,1)) (x) E[2](1,1) - E[2](1,2) (x) E[2](1,1)"
    " (x) E[2](1,1)",
    "-1*E[2](1,1)*E[2](1,1) - (E[2](1,1)*E[2](1,2))",
])
def test_parse_matches_element_fold_pinned(text):
    assert _outcome(parse_element, text) == _outcome(_ref_parse_element, text)


def _unit(rows, cols, v):
    return ("MatrixUnitIndex", rows, cols, repr(v))


# Sums whose partial sums straddle the pruning tolerance or hold a
# non-finite part: all terms merge once, in order of first occurrence, with
# nothing pruned before the sum.
@pytest.mark.parametrize("text, terms", [
    ("E[2](1,1) - E[2](1,1) + E[2](2,2) + E[2](1,1)",
     [_unit((1,), (1,), 1 + 0j), _unit((2,), (2,), 1 + 0j)]),
    # (inf, nan) minus itself: the negated term (nan, nan) enters the sum
    ("1e400*E[2](1,1) - 1e400*E[2](1,1)", []),
    ("1e-14*E[2](1,1) + 1e-15*E[2](1,1) + 5e-15*E[2](1,1) + 5e-15*E[2](1,1)",
     [_unit((1,), (1,), 2.1000000000000002e-14 + 0j)]),
    # a scaled group is not pruned before the sum
    ("1e-15*(E[2](1,1)) + 1e-14*E[2](1,1)", [_unit((1,), (1,), 1.1e-14 + 0j)]),
])
def test_sum_merges_all_terms_once(text, terms):
    assert _outcome(parse_element, text) == ((2,), terms)


_SUM_REALS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-14, -1e-14, 5e-15, 1e-15,
              -7e-15, 1.5e308, -1.5e308, math.inf, -math.inf]


def _real_text(x):
    if math.isfinite(x):
        return repr(x)
    return "1e400" if x > 0 else "-1e400"


@st.composite
def _flat_sums(draw):
    """A flat sum of ``scalar*chain`` terms as text, with the list of its
    terms' ``(index, coeff)``: the scalar times the chain's ``1 + 0j``,
    then times ``complex(-1.0)`` after a ``-``."""
    dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3)]))
    reals = st.one_of(st.sampled_from(_SUM_REALS),
                      st.floats(allow_nan=False, width=64))
    text, terms = "", []
    for pos in range(draw(st.integers(1, 12))):
        rows = tuple(draw(st.integers(1, d)) for d in dims)
        cols = tuple(draw(st.integers(1, d)) for d in dims)
        re_part, im_part = draw(reals), draw(reals)
        if draw(st.booleans()):
            scalar = complex(re_part, im_part)
            shown = f"({_real_text(re_part)},{_real_text(im_part)})"
        else:
            scalar, shown = complex(re_part), _real_text(re_part)
        coeff = scalar * (1 + 0j)
        negate = pos > 0 and draw(st.booleans())
        if pos:
            text += " - " if negate else " + "
        if negate:
            coeff = complex(-1.0) * coeff
        text += f"{shown}*" + " (x) ".join(
            f"E[{d}]({j},{k})" for d, j, k in zip(dims, rows, cols))
        terms.append(((rows, cols), coeff))
    return dims, text, terms


@given(_flat_sums())
@settings(max_examples=300, deadline=None)
def test_flat_sum_is_the_constructors_element(case):
    dims, text, terms = case
    built = AlgebraElement(dims, terms)
    assert _outcome(parse_element, text) == _outcome(lambda _: built, text)
    assert parse_element(text).coeff.tobytes() == built.coeff.tobytes()


@pytest.mark.parametrize("n_terms", [1, 300, 1500])
def test_parse_matches_element_fold_on_workload_text(monkeypatch, n_terms):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    rng = np.random.default_rng([401, n_terms])
    text = workloads._expr(
        workloads.random_terms(rng, workloads.CLI_FUSED, n_terms),
        workloads.CLI_FUSED)
    assert _outcome(parse_element, text) == _outcome(_ref_parse_element, text)


@pytest.mark.parametrize("text", ["E[2](1,1( x )E[2](1,1)",
                                  "E[2](1,1) + ( \t x )"])
def test_parse_error_names_the_tensor_operator_without_its_spaces(text):
    # the operator may have spaces and tabs inside; the message names it
    # "(x)", as the reference tokenizer does
    outcome = _outcome(parse_element, text)
    assert "found '(x)'" in outcome[2]
    assert outcome == _outcome(_ref_parse_element, text)

