"""Element expression grammar and the state spec syntax."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhfkron.algebra import (
    elem_tensor,
    matrix_unit,
    random_element,
    to_dense,
)
from uhfkron.errors import ParseError, ValidationError
from uhfkron.parser import (
    format_element,
    parse_element,
    parse_state,
)
from uhfkron.states import state_evaluate


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
