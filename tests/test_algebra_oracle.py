"""The array-backed element against the dict implementation it replaced.

The oracle below is the earlier dict code of the element constructor,
``+``, scalar and algebra ``*``, ``adjoint``, ``elem_tensor`` and
``insert_identity_slot``, on plain ``{MatrixUnitIndex: complex}`` dicts.
Every operation must give the same terms in the same order with the same
coefficient bits (``float.hex``, so signed zeros count), on elements whose
coefficients include signed zeros, values at the pruning threshold, parts
whose modulus overflows, infinities and nan.  ``to_dense`` is compared byte
for byte with a per-term ``numpy.kron`` chain.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uhfkron.algebra import (
    COEFF_PRUNE_TOL,
    AlgebraElement,
    MatrixUnitIndex,
    elem_tensor,
    insert_identity_slot,
    to_dense,
)


# ---------------------------------------------------------------------------
# the dict oracle
# ---------------------------------------------------------------------------

def _ref_modulus(c):
    try:
        return abs(c)
    except OverflowError:
        return math.hypot(c.real, c.imag)


def ref_element(items):
    merged = {}
    for idx, coeff in items:
        idx = MatrixUnitIndex(tuple(idx[0]), tuple(idx[1]))
        merged[idx] = merged.get(idx, 0j) + complex(coeff)
    return {idx: c for idx, c in merged.items()
            if _ref_modulus(c) > COEFF_PRUNE_TOL}


def ref_add(x, y):
    out = dict(x)
    for idx, c in y.items():
        out[idx] = out.get(idx, 0j) + c
    return ref_element(out.items())


def ref_scale(c, x):
    c = complex(c)
    return ref_element({idx: c * v for idx, v in x.items()}.items())


def ref_mul(x, y):
    by_rows = {}
    for (r2, c2), v2 in y.items():
        by_rows.setdefault(r2, []).append((c2, v2))
    out = {}
    for (r1, c1), v1 in x.items():
        for c2, v2 in by_rows.get(c1, ()):
            idx = MatrixUnitIndex(r1, c2)
            out[idx] = out.get(idx, 0j) + v1 * v2
    return ref_element(out.items())


def ref_adjoint(x):
    return ref_element({MatrixUnitIndex(c, r): v.conjugate()
                        for (r, c), v in x.items()}.items())


def ref_tensor(x, y):
    out = {}
    for (r1, c1), v1 in x.items():
        for (r2, c2), v2 in y.items():
            out[MatrixUnitIndex(r1 + r2, c1 + c2)] = v1 * v2
    return ref_element(out.items())


def ref_insert(x, position, dim):
    out = {}
    for (r, c), v in x.items():
        for m in range(1, dim + 1):
            out[MatrixUnitIndex(r[:position] + (m,) + r[position:],
                                c[:position] + (m,) + c[position:])] = v
    return ref_element(out.items())


def ref_allclose(x, y, tol):
    # the dict loop, with the overflow rule of element construction
    return all(_ref_modulus(x.get(k, 0j) - y.get(k, 0j)) <= tol
               for k in set(x) | set(y))


def bits(terms):
    """Terms in order, coefficients as the hex of both parts."""
    return [(idx, c.real.hex(), c.imag.hex()) for idx, c in terms.items()]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-15, -7e-15, 1e-14, 2e-14, 1e-300,
          5e-324, 1.5e308, -1.5e308, math.inf, -math.inf, math.nan]
parts = st.one_of(st.sampled_from(_PARTS),
                  st.floats(-4.0, 4.0, allow_subnormal=True))
coefficients = st.builds(complex, parts, parts)
finite_parts = st.one_of(
    st.sampled_from([p for p in _PARTS if math.isfinite(p)]),
    st.floats(-4.0, 4.0))
finite_coefficients = st.builds(complex, finite_parts, finite_parts)


@st.composite
def items(draw, dims, coeffs=coefficients, max_size=10):
    """Terms over few indices, so that indices repeat and cancel."""
    index = st.tuples(*(st.integers(1, min(d, 2)) for d in dims))
    return draw(st.lists(st.tuples(st.tuples(index, index), coeffs),
                         max_size=max_size))


dims_st = st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2, 2)])


@st.composite
def pairs(draw):
    """Two elements' items over one signature, and a scalar."""
    dims = draw(dims_st)
    return (dims, draw(items(dims)), draw(items(dims)),
            draw(coefficients))


# ---------------------------------------------------------------------------
# the differential tests
# ---------------------------------------------------------------------------

@given(pairs())
@settings(max_examples=300, deadline=None)
def test_operations_match_the_dict_oracle(case):
    dims, xi, yi, c = case
    x, y = AlgebraElement(dims, xi), AlgebraElement(dims, yi)
    rx, ry = ref_element(xi), ref_element(yi)
    assert bits(x.terms) == bits(rx)
    assert bits((x + y).terms) == bits(ref_add(rx, ry))
    assert bits((x - y).terms) == bits(ref_add(rx, ref_scale(-1.0, ry)))
    assert bits((c * x).terms) == bits(ref_scale(c, rx))
    assert bits((x * c).terms) == bits(ref_scale(c, rx))
    assert bits((x * y).terms) == bits(ref_mul(rx, ry))
    assert bits(x.adjoint().terms) == bits(ref_adjoint(rx))


@given(pairs(), st.sampled_from([0.0, 1e-12, 1.0, math.inf]))
@settings(max_examples=200, deadline=None)
def test_comparisons_match_the_dict_oracle(case, tol):
    dims, xi, yi, _ = case
    x, y = AlgebraElement(dims, xi), AlgebraElement(dims, yi)
    rx, ry = ref_element(xi), ref_element(yi)
    assert (x == y) == (rx == ry)
    assert x == x  # as for a dict, even with an (inf, nan) coefficient
    assert (x == AlgebraElement(dims, xi)) == (rx == ref_element(xi))
    assert x.allclose(y, tol) == ref_allclose(rx, ry, tol)


@given(dims_st, dims_st, st.data())
@settings(max_examples=150, deadline=None)
def test_tensor_and_identity_slot_match_the_dict_oracle(dims, other, data):
    xi = data.draw(items(dims))
    yi = data.draw(items(other, max_size=4))
    x, y = AlgebraElement(dims, xi), AlgebraElement(other, yi)
    rx, ry = ref_element(xi), ref_element(yi)
    assert bits(elem_tensor(x, y).terms) == bits(ref_tensor(rx, ry))
    position = data.draw(st.integers(0, len(dims)))
    dim = data.draw(st.integers(2, 3))
    assert bits(insert_identity_slot(x, position, dim).terms) == bits(
        ref_insert(rx, position, dim))


def test_constructor_matches_the_dict_oracle_on_mappings():
    # a mapping takes the same merge-and-prune path as a pair sequence
    terms = {((1,), (2,)): -0.0 + 3e-14j, ((2,), (1,)): complex(-0.0, 5.0),
             ((1,), (1,)): 2e-13, ((2,), (2,)): 1e-15}
    x = AlgebraElement((2,), terms)
    assert bits(x.terms) == bits(ref_element(terms.items()))


def kron_chain(x):
    """The dense matrix as the Kronecker chain of each term's units."""
    D = x.sig.total_dim
    out = np.zeros((D, D), dtype=complex)
    for (rows, cols), v in x.terms.items():
        block = np.array([[v]], dtype=complex)
        for j, k, d in zip(rows, cols, x.sig.dims):
            unit = np.zeros((d, d), dtype=complex)
            unit[j - 1, k - 1] = 1.0
            with np.errstate(over="ignore"):  # huge parts times 0 or 1
                block = np.kron(block, unit)
        out += block
    return out


@given(dims_st, st.data())
@settings(max_examples=100, deadline=None)
def test_to_dense_is_the_kron_chain_byte_for_byte(dims, data):
    index = st.tuples(*(st.integers(1, d) for d in dims))
    xi = data.draw(st.lists(
        st.tuples(st.tuples(index, index), finite_coefficients),
        max_size=12))
    x = AlgebraElement(dims, xi)
    assume(np.isfinite(x.coeff).all())  # merged parts may overflow
    assert to_dense(x).tobytes() == kron_chain(x).tobytes()
