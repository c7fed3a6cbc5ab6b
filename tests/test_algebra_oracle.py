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
import operator
import sys
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uhfkron import algebra
from uhfkron.algebra import (
    COEFF_PRUNE_TOL,
    AlgebraElement,
    MatrixUnitIndex,
    elem_tensor,
    matrix_unit,
)
from uhfkron.errors import IndexRangeError, ValidationError
from uhfkron.sweeps import insert_identity_slot, to_dense


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


# Stages whose term keys need the rank fallback: over (2**20 + 3,)*3 one
# side's row (or column) key fits int64 but a row key times the column-key
# bound does not; over (3,)*40 a single side's key is itself ranked.
wide_dims_st = st.sampled_from([(2**20 + 3,) * 3, (3,) * 40])


@st.composite
def wide_pairs(draw):
    """Two elements' items over a wide stage, from a few multi-indices
    (the first and last index of each factor among them), so that indices
    repeat and cancel."""
    dims = draw(wide_dims_st)
    index = st.tuples(*(st.sampled_from((1, 2, d)) for d in dims))
    pool = st.sampled_from(draw(st.lists(index, min_size=1, max_size=3)))
    terms = st.lists(st.tuples(st.tuples(pool, pool), coefficients),
                     max_size=10)
    return dims, draw(terms), draw(terms)


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


# up to the largest float: allclose refuses an infinite tolerance, as the
# suites do, and an overflowing modulus is past every finite one
@given(pairs(), st.sampled_from([0.0, 1e-12, 1.0, sys.float_info.max]))
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


@given(wide_pairs(), st.sampled_from([0.0, 1e-12, sys.float_info.max]))
@settings(max_examples=150, deadline=None)
def test_rank_fallback_of_the_term_key_matches_the_dict_oracle(case, tol):
    dims, xi, yi = case
    x, y = AlgebraElement(dims, xi), AlgebraElement(dims, yi)
    rx, ry = ref_element(xi), ref_element(yi)
    assert bits(x.terms) == bits(rx)
    assert bits((x + y).terms) == bits(ref_add(rx, ry))
    assert bits((x - y).terms) == bits(ref_add(rx, ref_scale(-1.0, ry)))
    assert bits((x * y).terms) == bits(ref_mul(rx, ry))
    assert bits((y * x).terms) == bits(ref_mul(ry, rx))
    assert (x == y) == (rx == ry)
    assert x.allclose(y, tol) == ref_allclose(rx, ry, tol)
    assert bits(dict(x.sorted_terms())) == bits(dict(sorted(rx.items())))


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


# ---------------------------------------------------------------------------
# the merge kernel: sequential sums, the pruning threshold, the packed key
# ---------------------------------------------------------------------------

def assert_ops_match_the_oracle(dims, xi, yi, c):
    """The constructor, ``+``, ``*`` and scalar ``*`` bit for bit."""
    x, y = AlgebraElement(dims, xi), AlgebraElement(dims, yi)
    rx, ry = ref_element(xi), ref_element(yi)
    assert bits(x.terms) == bits(rx)
    assert bits(y.terms) == bits(ry)
    assert bits((x + y).terms) == bits(ref_add(rx, ry))
    assert bits((x * y).terms) == bits(ref_mul(rx, ry))
    assert bits((y * x).terms) == bits(ref_mul(ry, rx))
    assert bits((c * x).terms) == bits(ref_scale(c, rx))


def test_repeated_index_sums_in_input_order():
    # 10 coefficients on one index, whose pairwise sum (numpy's reduction)
    # and sequential sum differ; as products, 10 pairs meet on E_11
    parts = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-3, 7.0, 1.0, 1.0, 0.5]
    values = [complex(p, -p / 3) for p in parts]
    running = 0j
    for v in values:
        running += v
    assert np.sum(values) != running
    one = ((1,), (1,))
    xi = [(one, v) for v in values]
    assert_ops_match_the_oracle((12,), xi, xi[::-1], 0.1 + 0.3j)
    # x * y = sum_k values[k] E_11 over the ten pairs (1, k), (k, 1)
    xi = [(((1,), (k,)), v) for k, v in enumerate(values, start=1)]
    yi = [(((k,), (1,)), 1.0) for k in range(1, 11)]
    assert_ops_match_the_oracle((12,), xi, yi, -1.0)


# numpy.abs and hypot part at these moduli: the first is dropped although
# numpy.abs reads it above COEFF_PRUNE_TOL, the second kept although
# numpy.abs reads it at the tolerance
DROPPED = 3.451063496476049e-15 + 9.38563587314629e-15j
KEPT = 7.654060827310398e-15 + 6.435476116949894e-15j


def test_coefficients_that_straddle_the_tolerance():
    assert math.hypot(DROPPED.real, DROPPED.imag) <= COEFF_PRUNE_TOL
    assert math.hypot(KEPT.real, KEPT.imag) > COEFF_PRUNE_TOL
    with np.errstate(all="ignore"):
        moduli = np.abs(np.array([DROPPED, KEPT] * 64))
    assert moduli[0] > COEFF_PRUNE_TOL and not moduli[1] > COEFF_PRUNE_TOL
    index = [((j,), (k,)) for j in (1, 2) for k in (1, 2)]
    xi = [(index[k % 4], v) for k, v in enumerate(
        [DROPPED, KEPT, -DROPPED, 1.0, KEPT, DROPPED, 2.0, -KEPT] * 40)]
    yi = [(index[0], 1.0), (index[3], 1.0), (index[1], KEPT)]
    assert_ops_match_the_oracle((2,), xi, yi, 1.0)
    assert_ops_match_the_oracle((2,), [(index[0], DROPPED)] * 3,
                                [(index[0], KEPT)], 1.0)
    # as single terms, the first is pruned and the second is kept
    assert AlgebraElement(2, {index[0]: DROPPED}).is_zero
    assert len(AlgebraElement(2, {index[0]: KEPT})) == 1
    assert (DROPPED * matrix_unit(2, 1, 2)).is_zero
    assert len(KEPT * matrix_unit(2, 1, 2)) == 1


def test_packed_key_past_int64_takes_the_rank_fallback(monkeypatch):
    # over (3, 2**29): the term keys fit (bound 16*(2**29 + 1)**2 < 2**63),
    # but the term position packed below them does not, so the merge ranks
    # the keys first
    ranked = []
    ranks = algebra._ranks
    monkeypatch.setattr(algebra, "_ranks",
                        lambda a: ranked.append(len(a)) or ranks(a))
    dims = (3, 2**29)
    pool = [(1, 1), (3, 2**29), (2, 7), (1, 2**29)]
    rng = np.random.default_rng(5)
    xi = [((pool[rng.integers(4)], pool[rng.integers(4)]),
           complex(rng.standard_normal(), 0.0)) for _ in range(30)]
    yi = [((pool[rng.integers(4)], pool[rng.integers(4)]), 1.5 - 1j)
          for _ in range(12)]
    assert_ops_match_the_oracle(dims, xi, yi, 2.0)
    assert ranked


_SPECIAL = [0.0, -0.0, 1.0, -2.5, 1e-15, math.inf, -math.inf, math.nan]


def test_nan_inf_and_signed_zero_parts():
    special = [complex(a, b) for a in _SPECIAL for b in _SPECIAL]
    index = [((j,), (k,)) for j in (1, 2, 3) for k in (1, 2, 3)]
    xi = [(index[k % 5], v) for k, v in enumerate(special)]
    yi = [(index[(3 * k) % 9], v) for k, v in enumerate(special[::-1][:20])]
    with np.errstate(all="ignore"):
        for c in (1.0, -0.0, complex(math.inf, 0.0), complex(0.0, math.nan)):
            assert_ops_match_the_oracle((3,), xi, yi, c)
        for v in special:  # one term each, so no sum hides a part
            assert_ops_match_the_oracle((3,), [(index[1], v)],
                                        [(index[3], v)], v)


# ---------------------------------------------------------------------------
# the constructor's bulk read against the per-term read
# ---------------------------------------------------------------------------

class Index:
    """An integer only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def per_term(items):
    """Each term read on its own, as the constructor's loop read it: an
    index (rows, cols) of multi-indices or, at level 1, single indices,
    each entry read by ``operator.index``; the coefficient by ``complex``."""
    def entries(value):
        try:
            return tuple(map(operator.index, value))
        except TypeError:
            return (operator.index(value),)
    return [((entries(idx[0]), entries(idx[1])), complex(c))
            for idx, c in items]


CONSTRUCTOR_KINDS = {  # dims and a function making the terms afresh
    "tuples": ((2, 3), lambda: [
        (((1, 2), (2, 3)), 1.5), (((1, 2), (2, 3)), -1)]),
    "lists-and-ranges": ((2, 3), lambda: [
        ([[1, 2], range(2, 4)], 2j), (([2, 1], (1, 1)), 1)]),
    "generators": ((2, 3), lambda: [
        (((j for j in (2, 3)), iter((1, 1))), 0.5)]),
    "bools": ((2, 2), lambda: [
        (((True, 2), (1, True)), True), (((True, True), (2, 2)), False + 1j)]),
    "numpy-ints": ((4, 3), lambda: [
        (((np.int64(4), np.uint8(3)), (np.int32(1), np.uint64(2))),
         np.float32(0.25)),
        (((2, 3), (np.uint64(1), 2)), np.complex64(1j))]),
    "mixed-uint64-and-int": ((3, 3), lambda: [
        (((np.uint64(3), 1), (1, 2)), 1.0),
        (((1, 3), (2, np.uint64(2))), 2.0)]),
    "index-objects": ((3, 2), lambda: [
        (((Index(3), 2), (1, Index(1))), 1.0),
        (((1, 1), (Index(2), 2)), Fraction(1, 3))]),
    "numpy-arrays": ((3, 3), lambda: [
        ((np.array([1, 2]), np.array([3, 3], np.uint8)), 1.0),
        (((np.array(2), 1), (3, np.int16(3))), 4.0)]),
    "level-1-scalars": ((4,), lambda: [
        ((1, 2), 1.0), ((np.int64(3), (4,)), 2.0), ((Index(2), True), -1.0),
        (((1,), 2), 3.0)]),
    "index-extras": ((2,), lambda: [
        (MatrixUnitIndex((1,), (2,)), 1.0), (((2,), (1,), "ignored"), 2.0),
        ([(1,), (2,)], 3.0)]),
    "coefficients": ((2,), lambda: [
        (((1,), (1,)), "1+2j"), (((1,), (2,)), Decimal(2)),
        (((2,), (1,)), np.float64(-0.0)), (((2,), (2,)), 10**20),
        (((1,), (1,)), -1e-300)]),
}


@pytest.mark.parametrize("dims, items", CONSTRUCTOR_KINDS.values(),
                         ids=CONSTRUCTOR_KINDS.keys())
def test_constructor_reads_every_kind_as_the_per_term_read(dims, items):
    # a fresh list of terms for each read, as some entries read only once
    want = bits(ref_element(per_term(items())))
    for make in (list, tuple, iter, lambda t: [list(term) for term in t]):
        assert bits(AlgebraElement(dims, make(items())).terms) == want
    try:
        dict(items())  # a repeated index keeps its last term
    except TypeError:  # an unhashable index
        return
    want = bits(ref_element(per_term(dict(items()).items())))
    for make in (dict, lambda t: MappingProxyType(dict(t))):
        assert bits(AlgebraElement(dims, make(items())).terms) == want


GOOD = [(((1, 1), (1, 2)), 1.0), (((2, 1), (2, 2)), np.int64(2))]


@pytest.mark.parametrize("bad, error, message", [
    ((((1, 1), (1, 2)), "x"), ValidationError,
     "^coefficient of term 3 \\(str\\) does not convert to a complex number$"),
    ((((1, 1), (1, 2)), None), ValidationError, "^coefficient of term 3 "),
    ((((1, 1), (1, 2)), 10**400), ValidationError, "^coefficient of term 3 "),
    ((((1, 1),), 1.0), ValidationError,
     "^term 3 is not a pair \\(index, coefficient\\) with an index "
     "\\(rows, cols\\)$"),
    ((((1, 1), (1, 2)),), ValidationError, "^term 3 is not a pair"),
    ((((1, 1), (1, 2)), 1.0, 2.0), ValidationError, "^term 3 is not a pair"),
    (7, ValidationError, "^term 3 is not a pair"),
    ((5, 1.0), ValidationError, "^term 3 is not a pair"),
    ((((1, 1.5), (1, 2)), 1.0), IndexRangeError,
     "^row index 1.5 at factor 2 is not an integer$"),
    ((((1, 1), ("1", 2)), 1.0), IndexRangeError,
     "^column index '1' at factor 1 is not an integer$"),
    ((((1, 1), (1, 2, 1)), 1.0), IndexRangeError,
     "^index length 2/3 does not match level 2$"),
    ((((1, 1), 1), 1.0), IndexRangeError,
     "^index length 2/1 does not match level 2$"),
    ((((1, 1), (1, 3)), 1.0), IndexRangeError,
     "^column index 3 exceeds dimension 2 at factor 2$"),
    ((((0, 1), (1, 2)), 1.0), IndexRangeError,
     "^row index 0 exceeds dimension 2 at factor 1$"),
    ((((2**64, 1), (1, 2)), 1.0), IndexRangeError,
     "^row index 18446744073709551616 exceeds dimension 2 at factor 1$"),
    ((((np.uint64(2**63), 1), (1, 2)), 1.0), IndexRangeError,
     "^row index 9223372036854775808 exceeds dimension 2 at factor 1$"),
], ids=["string", "none", "huge-int", "one-index", "no-coefficient",
        "triple", "no-sequence", "index-no-pair", "float-index",
        "string-index", "long-index", "scalar-index", "column-past-dim",
        "row-zero", "row-past-int64", "row-past-int64-numpy"])
def test_constructor_names_the_first_bad_term(bad, error, message):
    # the error of the per-term read, for the first bad term only
    for terms in (GOOD + [bad] + GOOD, GOOD + [bad, ((1, 1), "junk")],
                  iter(GOOD + [bad])):
        with pytest.raises(error, match=message):
            AlgebraElement((2, 2), terms)


def test_constructor_of_an_array_is_no_truth_value():
    # an array of terms is read as any other sequence of them
    with pytest.raises(ValidationError,
                       match="^term 1 is not a pair \\(index, coefficient\\)"):
        AlgebraElement((2,), np.zeros(3))
    for empty in (np.zeros(0), [], (), {}, None):
        x = AlgebraElement((2,), empty)
        assert x.is_zero and x.rows.shape == (0, 1)


# ---------------------------------------------------------------------------
# bulk scale: every gather of the merge, by position
# ---------------------------------------------------------------------------

def seeded_items(seed, dims, n):
    """n terms with uniform indices over ``dims`` and complex Gaussian
    coefficients, as (index, coefficient) pairs of Python objects."""
    rng = np.random.default_rng(seed)
    high = np.array(dims, dtype=np.int64) + 1
    rows, cols = (rng.integers(1, high, size=(n, len(dims))).tolist()
                  for _ in range(2))
    coeff = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()
    return [((tuple(r), tuple(c)), v) for r, c, v in zip(rows, cols, coeff)]


def test_bulk_products_and_sums_match_the_dict_oracle():
    # bulk-algebra's shapes: 20000 x 2000 and 20000 + 20000 terms
    dims = (4, 6, 4, 4)
    xi, yi, wi = (seeded_items(seed, dims, n)
                  for seed, n in ((71, 20000), (72, 2000), (73, 20000)))
    x, y, w = (AlgebraElement(dims, t) for t in (xi, yi, wi))
    rx, ry, rw = (ref_element(t) for t in (xi, yi, wi))
    assert bits(x.terms) == bits(rx)
    assert bits((x * y).terms) == bits(ref_mul(rx, ry))
    assert bits((x + y).terms) == bits(ref_add(rx, ry))
    assert bits((x + w).terms) == bits(ref_add(rx, rw))


def test_every_keep_form_at_bulk_scale(monkeypatch):
    # 5000-term elements whose constructor, sum, product and scaling take
    # each form of the merge: all terms kept (a slice), some pruned with no
    # index repeated, and repeated indices whose sums cancel below
    # COEFF_PRUNE_TOL
    forms = set()
    kept = algebra._kept

    def record(coeff):
        n = len(coeff)
        keep, out = kept(coeff)
        forms.add("all" if len(out) == n else "some")
        return keep, out

    monkeypatch.setattr(algebra, "_kept", record)
    dims = (4, 6, 4, 4)
    rng = np.random.default_rng(74)
    units = rng.choice(384 * 384, size=12000, replace=False).tolist()

    def multi(flat):  # the 1-based multi-index of a row-major flat index
        return tuple(int(v) + 1 for v in np.unravel_index(flat, dims))

    index = [(multi(u // 384), multi(u % 384)) for u in units]
    values = (rng.standard_normal(12000)
              + 1j * rng.standard_normal(12000)).tolist()
    # x: 5000 distinct indices, all kept
    xi = list(zip(index[:5000], values[:5000]))
    # y: 5000 distinct indices, one in ten of them pruned by the
    # constructor, and 2000 of x's indices with the negated coefficient,
    # shifted by parts that stay below the tolerance
    tiny = [1e-15, -0.0, DROPPED, KEPT, complex(3e-15, -4e-15)]
    yi = [(idx, tiny[k // 10 % 5] if k % 10 == 0 else v)
          for k, (idx, v) in enumerate(zip(index[5000:10000],
                                           values[5000:10000]))]
    yi += [(idx, -v + tiny[k % 5]) for k, (idx, v) in
           enumerate(xi[:2000])]
    assert_ops_match_the_oracle(dims, xi, yi, 3e-15)
    x, y = AlgebraElement(dims, xi), AlgebraElement(dims, yi)
    assert len(x + y) <= len(x) + len(y) - 2000 - 1500  # sums cancel
    assert forms == {"all", "some"}


def test_rank_fallback_of_a_bulk_product_on_a_2_61_slot(monkeypatch):
    # over (3, 2**61) the two index columns do not fit one key, so
    # _lex_keys joins them by ranks, and the term and pair keys are ranked
    # again: the fallback runs on 10000-term operands
    ranked = []
    ranks = algebra._ranks
    monkeypatch.setattr(algebra, "_ranks",
                        lambda a: ranked.append(len(a)) or ranks(a))
    dims = (3, 2**61)
    rng = np.random.default_rng(75)
    pool = np.concatenate([[1, 2, 2**61 - 1, 2**61],
                           rng.integers(1, 2**61, 196)]).tolist()
    picks = rng.integers(0, 3 * len(pool), size=(12000, 2)).tolist()
    index = [((1 + a % 3, pool[a // 3]), (1 + b % 3, pool[b // 3]))
             for a, b in picks]
    values = (rng.standard_normal(12000)
              + 1j * rng.standard_normal(12000)).tolist()
    xi = list(zip(index[:10000], values[:10000]))
    yi = list(zip(index[10000:], values[10000:]))
    x, y = AlgebraElement(dims, xi), AlgebraElement(dims, yi)
    rx, ry = ref_element(xi), ref_element(yi)
    ranked.clear()
    z = x * y
    # the product's keys of all 2(T + T') index rows, and its pair keys'
    # row keys, are ranks
    assert 2 * (len(x) + len(y)) in ranked and len(x) in ranked
    assert len(x) >= 9000 and len(z) >= 10000
    assert bits(z.terms) == bits(ref_mul(rx, ry))
    assert bits((x + y).terms) == bits(ref_add(rx, ry))
