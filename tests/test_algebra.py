"""Core sparse algebra: products, embeddings, the Kronecker coproduct.

Structural identities (coassociativity, compatibility with the unital
embeddings, the *-isomorphism property) are checked exactly on indices,
then cross-checked against dense numpy.kron materializations.
"""

import copy
import itertools
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhfkron import algebra
from uhfkron.algebra import (
    DENSE_DIM_GUARD,
    AlgebraElement,
    MatrixUnitIndex,
    Signature,
    _lex_keys,
    _term_keys,
    as_signature,
    coproduct_phi,
    elem_tensor,
    identity,
    matrix_unit,
    zero,
)
from uhfkron.errors import (
    IndexRangeError,
    ResourceGuardError,
    SignatureError,
    ValidationError,
)
from uhfkron.sweeps import (
    all_matrix_units,
    block_permutation,
    coproduct_phi_block,
    embed_psi,
    from_dense,
    insert_identity_slot,
    kron_box,
    product_phi_inverse,
    random_element,
    to_dense,
)


# ---------------------------------------------------------------------------
# frozen oracle values (computed independently, by hand / dense numpy)
# ---------------------------------------------------------------------------

# diag(1,0) kron diag(0,1) in the lexicographic convention
FROZEN_KRON_DIAG = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)

# index splits j = b*(j'-1) + j'' for b = 3: j -> (j', j'')
FROZEN_SPLIT_B3 = {1: (1, 1), 2: (1, 2), 3: (1, 3), 4: (2, 1), 5: (2, 2), 6: (2, 3)}

# dense matrix of E[2](1,2) (x) E[2](2,1): single 1 at row 2, col 3 (1-based)
FROZEN_E12_E21 = np.zeros((4, 4), dtype=complex)
FROZEN_E12_E21[1, 2] = 1.0


def test_signature_validation():
    assert Signature((2, 3, 2)).total_dim == 12
    assert Signature((4,)).level == 1
    with pytest.raises(SignatureError):
        Signature((2, 1))
    with pytest.raises(SignatureError):
        Signature(())


@pytest.mark.parametrize("dims, match", [
    ((2.9, 3), "dimension 2.9 at position 1 is not an integer"),
    (("3",), "dimension '3' at position 1 is not an integer"),
    ((2, 3.0), "dimension 3.0 at position 2 is not an integer"),
    ((2, None), "dimension None at position 2 is not an integer"),
])
def test_signature_refuses_non_integer_dimensions(dims, match):
    # read with operator.index, as unit indices are: nothing truncated
    with pytest.raises(SignatureError, match=match):
        Signature(dims)


@pytest.mark.parametrize("make, match", [
    (lambda: Signature(3), "signature 3 is not a sequence"),
    (lambda: as_signature(3.0), "signature 3.0 is not a sequence"),
    (lambda: AlgebraElement(None), "signature None is not a sequence"),
], ids=["int", "float", "none"])
def test_signature_refuses_dimensions_that_are_no_sequence(make, match):
    with pytest.raises(SignatureError, match=match):
        make()


def test_signature_reads_numpy_integer_dimensions():
    sig = Signature((np.int64(3), np.uint8(2)))
    assert sig.dims == (3, 2)
    assert all(type(d) is int for d in sig.dims)


def test_identity_slots_refuse_non_integer_dimensions():
    x = matrix_unit((2, 2), (1, 2), (2, 1))
    with pytest.raises(SignatureError, match="2.0 at position 3"):
        embed_psi(x, 2.0)
    with pytest.raises(SignatureError, match="2.5 at position 2"):
        insert_identity_slot(x, 1, 2.5)
    assert embed_psi(x, np.int64(2)) == embed_psi(x, 2)
    with pytest.raises(SignatureError,
                       match="dimension '3' at position 2 is not an integer"):
        insert_identity_slot(x, 1, "3")
    with pytest.raises(SignatureError,
                       match="slot position 1.0 is not an integer"):
        insert_identity_slot(x, 1.0, 2)
    assert (insert_identity_slot(x, np.int8(1), np.uint8(3))
            == insert_identity_slot(x, 1, 3))


def test_signature_refuses_dimensions_past_int64_indices():
    Signature((2, 2**62 - 1))
    for dims, pos in [((2**62,), 1), ((2, 10**20), 2)]:
        with pytest.raises(SignatureError,
                           match=f"position {pos} is >= 2\\*\\*62"):
            Signature(dims)
    with pytest.raises(SignatureError, match="position 1"):
        Signature((2**31,)).product((2**31,))


def test_signature_product_and_concat():
    a = Signature((2, 3))
    b = Signature((2, 2))
    assert a.product(b).dims == (4, 6)
    assert a.concat(b).dims == (2, 3, 2, 2)
    with pytest.raises(SignatureError):
        a.product(Signature((2,)))


def test_matrix_unit_range_checks():
    matrix_unit((2, 3), (2, 3), (1, 1))
    with pytest.raises(IndexRangeError):
        matrix_unit((2, 3), (3, 1), (1, 1))
    with pytest.raises(IndexRangeError):
        matrix_unit((2, 3), (1, 1), (1, 0))
    with pytest.raises(IndexRangeError):
        matrix_unit((2, 3), (1,), (1, 1))


@pytest.mark.parametrize("rows, cols, message", [
    ((1.9,), (2,), "row index 1.9 at factor 1 is not an integer"),
    (1.5, 2, "row index 1.5 at factor 1 is not an integer"),
    ((1,), ("1",), "column index '1' at factor 1 is not an integer"),
    ((2, 1.7), (1, 1), "row index 1.7 at factor 2 is not an integer"),
    ((1, 2), (1, np.float64(1.0)),
     "column index (np.float64\\()?1.0\\)? at factor 2 is not an integer"),
], ids=["float", "bare-float", "string", "float-at-factor-2", "numpy-float"])
def test_unit_indices_must_be_integers(rows, cols, message):
    # int() would truncate 1.9 to 1 and read "1" as 1
    level = 1 if isinstance(rows, float) else len(rows)
    sig = (2, 2)[:level]
    with pytest.raises(IndexRangeError, match=message):
        matrix_unit(sig, rows, cols)
    with pytest.raises(IndexRangeError, match=message):
        AlgebraElement(sig, {(rows, cols): 1.0})


@pytest.mark.parametrize("bad, message", [
    (((3, 1), (1, 1)), "row index 3 exceeds dimension 2 at factor 1"),
    (((1, 0), (1, 1)), "row index 0 exceeds dimension 3 at factor 2"),
    (((1, 1), (1, 4)), "column index 4 exceeds dimension 3 at factor 2"),
    (((-1, 1), (2, 2)), "row index -1 exceeds dimension 2 at factor 1"),
], ids=["row-past-dim", "row-zero", "column-past-dim", "row-negative"])
def test_element_constructor_range_checks_every_term(bad, message):
    # every element is range-checked, whatever its other terms, so no
    # operation needs to check its indices again
    good = ((1, 1), (1, 1))
    for terms in ({good: 2.0, bad: 1.0}, [(good, 2.0), (bad, 1.0)]):
        with pytest.raises(IndexRangeError, match=message):
            AlgebraElement((2, 3), terms)


@pytest.mark.parametrize("rows, cols, message", [
    # the first factor with a bad entry is named, its row before its column
    ((1, 5, 3), (1, 1, 0), "row index 5 exceeds dimension 3 at factor 2"),
    ((1, 4, 1), (1, 0, 1), "row index 4 exceeds dimension 3 at factor 2"),
    ((1, 4, 1), (3, 1, 1), "column index 3 exceeds dimension 2 at factor 1"),
    ((1, 1, 3), (1, 4, 1), "column index 4 exceeds dimension 3 at factor 2"),
    ((0, 4, 0), (3, 0, 3), "row index 0 exceeds dimension 2 at factor 1"),
    # bools and numpy integers are read by operator.index
    ((True, 2, 1), (1, False, 1),
     "column index 0 exceeds dimension 3 at factor 2"),
    ((np.int64(1), np.int64(4), 1), (1, 1, 1),
     "row index 4 exceeds dimension 3 at factor 2"),
    ((1, 1, 1), (np.uint64(2**63), 1, 1),
     "column index 9223372036854775808 exceeds dimension 2 at factor 1"),
    # Python ints past int64 are compared, never converted
    ((1, 2**64, 1), (1, 1, 1),
     "row index 18446744073709551616 exceeds dimension 3 at factor 2"),
    ((1, 1, 1), (1, 1, -2**70),
     "column index -1180591620717411303424 exceeds dimension 2 at factor 3"),
], ids=["first-factor", "row-before-column", "column-at-earlier-factor",
        "column-only", "all-bad", "bool", "numpy-int64", "numpy-uint64",
        "huge-int", "huge-negative"])
def test_unit_range_check_names_the_first_bad_entry(rows, cols, message):
    # matrix_unit and the constructor's per-term read share the check
    sig = (2, 3, 2)
    with pytest.raises(IndexRangeError, match=f"^{message}$"):
        matrix_unit(sig, rows, cols)
    with pytest.raises(IndexRangeError, match=f"^{message}$"):
        AlgebraElement(sig, [(((1, 1, 1), (1, 1, 1)), 1.0),
                             ((rows, cols), 2.0)])


@pytest.mark.parametrize("terms, message", [
    ({1: 1.0}, "term 1 is not a pair \\(index, coefficient\\)"),
    ([((1, 1),)], "term 1 is not a pair"),
    ([(((1,), (1,)), 1.0), (((1,), (2,)),)], "term 2 is not a pair"),
    ([((1,), (1,))], "term 1 is not a pair"),
    ({((1,), (1,)): 2.0, ((2,), (1,)): "x"},
     "coefficient of term 2 \\(str\\) does not convert to a complex number"),
    ({((1,), (1,)): None}, "coefficient of term 1 \\(NoneType\\)"),
    ({((1,), (1,)): 10**5000}, "coefficient of term 1 \\(int\\)"),
    (5, "terms 5 is not a sequence"),
])
def test_element_constructor_names_a_malformed_term(terms, message):
    # a malformed term is a domain error at its position, not a raw
    # TypeError or ValueError from unpacking it
    with pytest.raises(ValidationError, match=message):
        AlgebraElement((2,), terms)


def test_element_constructor_has_no_switch_to_skip_the_check():
    with pytest.raises(TypeError):
        AlgebraElement((2, 3), {((3, 1), (1, 1)): 1.0}, validate=False)


def test_unit_indices_take_bools_and_numpy_integers():
    x = matrix_unit((2, 2), (True, np.int64(2)), np.array([np.uint8(1), 2]))
    assert x == matrix_unit((2, 2), (1, 2), (1, 2))
    assert x.rows.dtype == x.cols.dtype == np.int64


@pytest.mark.parametrize("sig, rows, cols, message", [
    ((2, 3), (1.0, 1), (1, 1), "row index 1.0 at factor 1 is not an integer"),
    ((2, 3), (1, 1), (1, "2"),
     "column index '2' at factor 2 is not an integer"),
    ((2, 3), None, (1, 1), "row index None at factor 1 is not an integer"),
    (2, 1, None, "column index None at factor 1 is not an integer"),
    ((2, 3), (1,), (1, 1), "index length 1/2 does not match level 2"),
    ((2, 3), 1, 1, "index length 1/1 does not match level 2"),
    ((2, 3), (1, 4), (3, 1), "column index 3 exceeds dimension 2 at factor 1"),
    ((2, 3), (1, 4), (1, 0), "row index 4 exceeds dimension 3 at factor 2"),
    (2, 3, 1, "row index 3 exceeds dimension 2 at factor 1"),
    (2, 1, 0, "column index 0 exceeds dimension 2 at factor 1"),
], ids=["float", "str", "none", "none-at-level-1", "too-few-entries",
        "int-at-level-2", "column-at-earlier-factor", "row-before-column",
        "row-at-level-1", "column-at-level-1"])
def test_matrix_unit_refuses_what_is_no_unit(sig, rows, cols, message):
    with pytest.raises(IndexRangeError, match=f"^{message}$"):
        matrix_unit(sig, rows, cols)


@pytest.mark.parametrize("sig, rows, cols, want", [
    ((2, 3), (2, 3), (1, 2), ((2, 3), (1, 2))),
    ((2, 3), (np.int64(2), np.int32(3)), (np.uint8(1), 2), ((2, 3), (1, 2))),
    ((2, 3), (True, 3), (2, True), ((1, 3), (2, 1))),
    ((2, 3), [2, 3], range(1, 3), ((2, 3), (1, 2))),
    (3, 3, 1, ((3,), (1,))),
    (3, np.int64(2), True, ((2,), (1,))),
    (3, (2,), 1, ((2,), (1,))),
], ids=["ints", "numpy-ints", "bools", "list-and-range", "level-1-ints",
        "level-1-numpy-and-bool", "level-1-mixed"])
def test_matrix_unit_reads_every_integer_form(sig, rows, cols, want):
    x = matrix_unit(sig, rows, cols)
    assert x.rows.tolist() == [list(want[0])]
    assert x.cols.tolist() == [list(want[1])]
    assert x.coeff.tolist() == [1 + 0j]
    assert x.rows.dtype == x.cols.dtype == np.int64
    for a in (x.rows, x.cols, x.coeff):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 2


def test_overflowing_modulus_is_kept():
    # abs() of a complex with these finite parts raises OverflowError; the
    # modulus is past every tolerance, so the term stays and the tiny one
    # next to it is still pruned.
    big = complex(1.5e308, 1.5e308)
    x = AlgebraElement((2,), [(((1,), (1,)), big), (((2,), (2,)), 1e-15)])
    assert list(x.terms.items()) == [(((1,), (1,)), big)]
    assert (big * matrix_unit(2, 1, 2)).terms == {((1,), (2,)): big}
    assert (x - x).is_zero


def test_allclose_counts_an_overflowing_modulus_as_inf():
    big = (1.5e308 + 1.5e308j) * matrix_unit(2, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not big.allclose(zero(2))
        assert not zero(2).allclose(big)
        # past every tolerance, the largest finite one too
        assert not big.allclose(zero(2), tol=np.finfo(float).max)
        assert big.allclose(big)
        assert not (-1.5e308 * big).allclose(1.5e308 * big, tol=1e300)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), "1e-12",
                                 None])
def test_allclose_reads_its_tolerance_as_the_suites_do(tol):
    # a negative or NaN tolerance used to make every comparison False
    x = matrix_unit(2, 1, 2)
    with pytest.raises(ValidationError, match=re.escape(
            f"tolerance {tol!r} is not a finite number >= 0")):
        x.allclose(x, tol=tol)
    assert x.allclose(x, tol=0) and x.allclose(x, tol=np.float32(0.5))


def test_unit_product_rule():
    # E_jk E_lm = delta_kl E_jm, checked on every pair at dim 3
    for j, k, l, m in itertools.product(range(1, 4), repeat=4):
        prod = matrix_unit(3, j, k) * matrix_unit(3, l, m)
        if k == l:
            assert prod == matrix_unit(3, j, m)
        else:
            assert prod.is_zero


def test_dense_of_tensor_unit():
    x = elem_tensor(matrix_unit(2, 1, 2), matrix_unit(2, 2, 1))
    np.testing.assert_allclose(to_dense(x), FROZEN_E12_E21)


def test_kron_box_convention():
    np.testing.assert_allclose(
        kron_box(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), FROZEN_KRON_DIAG
    )


def test_identity_is_identity():
    sig = (2, 3)
    one = identity(sig)
    np.testing.assert_allclose(to_dense(one), np.eye(6))
    x = random_element(sig, rng=0)
    assert (one * x).allclose(x)
    assert (x * one).allclose(x)


def test_adjoint_matches_dense():
    x = random_element((2, 2), rng=1)
    np.testing.assert_allclose(to_dense(x.adjoint()), to_dense(x).conj().T)


def test_product_matches_dense():
    x = random_element((2, 3), rng=2)
    y = random_element((2, 3), rng=3)
    np.testing.assert_allclose(to_dense(x * y), to_dense(x) @ to_dense(y))


def test_linear_ops_match_dense():
    x = random_element((3, 2), rng=4)
    y = random_element((3, 2), rng=5)
    np.testing.assert_allclose(to_dense(x + y), to_dense(x) + to_dense(y))
    np.testing.assert_allclose(to_dense(x - y), to_dense(x) - to_dense(y))
    np.testing.assert_allclose(to_dense(2.5j * x), 2.5j * to_dense(x))


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2)])
def test_from_dense_round_trip(dims):
    x = random_element(dims, rng=6)
    assert from_dense(to_dense(x), dims).allclose(x)


def test_from_dense_prunes_as_the_constructor():
    # numpy.abs reads this coefficient as exactly the tolerance and hypot
    # as one ulp above it: the constructor keeps it, so from_dense must
    c = 7.522688415877094e-15 - 6.588562741420059e-15j
    assert abs(c) > algebra.COEFF_PRUNE_TOL
    x = AlgebraElement((2,), [(((1,), (2,)), c)])
    assert len(x) == 1
    assert from_dense(to_dense(x), (2,)) == x


def test_dense_guard():
    with pytest.raises(ResourceGuardError):
        to_dense(identity((8, 8, 8, 8, 8)))


def test_embed_psi_expansion():
    # A -> A (x) I expands a unit into a sum over the diagonal of the new slot
    x = embed_psi(matrix_unit(2, 1, 2), 3)
    expected = sum(
        (
            elem_tensor(matrix_unit(2, 1, 2), matrix_unit(3, m, m))
            for m in range(2, 4)
        ),
        elem_tensor(matrix_unit(2, 1, 2), matrix_unit(3, 1, 1)),
    )
    assert x == expected
    np.testing.assert_allclose(
        to_dense(x), np.kron(to_dense(matrix_unit(2, 1, 2)), np.eye(3))
    )


def test_embed_psi_is_unital_homomorphism():
    a = random_element((2, 2), rng=7)
    b = random_element((2, 2), rng=8)
    assert embed_psi(a * b, 3).allclose(embed_psi(a, 3) * embed_psi(b, 3))
    assert embed_psi(identity((2, 2)), 3) == identity((2, 2, 3))


@pytest.mark.parametrize("j,expected", sorted(FROZEN_SPLIT_B3.items()))
def test_coproduct_index_split(j, expected):
    # level-1 coproduct of a diagonal unit lands on the frozen split pair
    y = coproduct_phi(matrix_unit(6, j, j), 2, 3)
    ((idx, coeff),) = y.terms.items()
    assert coeff == 1.0
    assert idx.rows == expected
    assert idx.cols == expected


def test_coproduct_witness_units():
    # the two middle diagonal units of M_4 split to opposite slot orders
    y22 = coproduct_phi(matrix_unit(4, 2, 2), 2, 2)
    y33 = coproduct_phi(matrix_unit(4, 3, 3), 2, 2)
    assert y22 == elem_tensor(matrix_unit(2, 1, 1), matrix_unit(2, 2, 2))
    assert y33 == elem_tensor(matrix_unit(2, 2, 2), matrix_unit(2, 1, 1))


def test_coproduct_mixed_dims_frozen():
    y = coproduct_phi(matrix_unit(6, 5, 2), 2, 3)
    assert y == elem_tensor(matrix_unit(2, 2, 1), matrix_unit(3, 2, 2))


def test_coproduct_inverts_factorwise_kron():
    # phi(A box B) = A (x) B at level 1, on dense random matrices
    rng = np.random.default_rng(9)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    fused = from_dense(kron_box(A, B), 6)
    split = coproduct_phi(fused, 2, 3)
    assert split.allclose(elem_tensor(from_dense(A, 2), from_dense(B, 3)))


@pytest.mark.parametrize("a,b", [((2,), (2,)), ((2, 3), (2, 2)), ((3,), (3,))])
def test_coproduct_is_star_isomorphism(a, b):
    sig = Signature(a).product(Signature(b))
    x = random_element(sig, rng=10)
    y = random_element(sig, rng=11)
    phix = coproduct_phi(x, a, b)
    phiy = coproduct_phi(y, a, b)
    assert coproduct_phi(x * y, a, b).allclose(phix * phiy)
    assert coproduct_phi(x.adjoint(), a, b).allclose(phix.adjoint())
    assert coproduct_phi(identity(sig), a, b) == identity(Signature(a).concat(b))


def test_coproduct_exhaustive_units_bijective():
    # phi maps the units of the fused stage bijectively onto concatenated units
    a, b = Signature((2, 2)), Signature((3, 2))
    fused = a.product(b)
    seen = set()
    for idx in all_matrix_units(fused):
        y = coproduct_phi(matrix_unit(fused, *idx), a, b)
        ((out_idx, coeff),) = y.terms.items()
        assert coeff == 1.0
        seen.add(out_idx)
    assert len(seen) == fused.total_dim**2


def test_product_phi_inverse_round_trip():
    a, b = (2, 3), (2, 2)
    sig = Signature(a).product(Signature(b))
    x = random_element(sig, rng=12)
    assert product_phi_inverse(coproduct_phi(x, a, b), 2) == x


@pytest.mark.parametrize("a,b", [((2, 2), (2, 3)), ((2, 3), (3, 2)),
                                 ((3,), (4,))])
def test_block_permutation_conjugates_dense(a, b):
    # dense(phi(x)) = P dense(x) P^T with the basis-sorting permutation
    sig = Signature(a).product(Signature(b))
    x = random_element(sig, rng=13)
    P = block_permutation(a, b)
    np.testing.assert_allclose(P @ P.T, np.eye(sig.total_dim))
    np.testing.assert_allclose(
        to_dense(coproduct_phi(x, a, b)), P @ to_dense(x) @ P.T
    )


@pytest.mark.parametrize("dims,level", [((2, 3, 2), 1), ((2, 3, 2), 2), ((2, 2, 2), 2)])
def test_coassociativity_exact(dims, level):
    # splitting (a*b)*c then a*b equals splitting a*(b*c) then b*c, exactly
    a = Signature((dims[0],) * level)
    b = Signature((dims[1],) * level)
    c = Signature((dims[2],) * level)
    fused = a.product(b).product(c)
    x = random_element(fused, rng=14, n_terms=12)

    left = coproduct_phi(x, a.product(b), c)
    left = coproduct_phi_block(left, 0, level, a, b)

    right = coproduct_phi(x, a, b.product(c))
    right = coproduct_phi_block(right, level, level, b, c)

    assert left.sig == a.concat(b).concat(c)
    assert left == right


def test_coassociativity_exhaustive_level1():
    a, b, c = Signature((2,)), Signature((3,)), Signature((2,))
    fused = a.product(b).product(c)
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        left = coproduct_phi_block(coproduct_phi(x, a.product(b), c), 0, 1, a, b)
        right = coproduct_phi_block(coproduct_phi(x, a, b.product(c)), 1, 1, b, c)
        assert left == right


@pytest.mark.parametrize("a,b,na,nb", [((2, 2), (2, 2), 3, 2), ((2, 3), (2, 2), 2, 3)])
def test_coproduct_compatible_with_embedding(a, b, na, nb):
    # extending the stage then splitting equals splitting then extending
    a_sig, b_sig = Signature(a), Signature(b)
    fused = a_sig.product(b_sig)
    x = random_element(fused, rng=15, n_terms=10)
    n = fused.level

    lhs = coproduct_phi(
        embed_psi(x, na * nb), a_sig.dims + (na,), b_sig.dims + (nb,)
    )
    rhs = coproduct_phi(x, a_sig, b_sig)
    rhs = insert_identity_slot(rhs, n, na)
    rhs = insert_identity_slot(rhs, 2 * n + 1, nb)
    assert lhs == rhs


def test_coproduct_phi_block_single_slot():
    x = matrix_unit((2, 6), (2, 5), (1, 2))
    y = coproduct_phi_block(x, 1, 1, (2,), (3,))
    assert y == matrix_unit((2, 2, 3), (2, 2, 2), (1, 1, 2))
    with pytest.raises(SignatureError, match="not 2\\*4"):
        coproduct_phi_block(x, 1, 1, (2,), (4,))
    with pytest.raises(SignatureError, match="outside"):
        coproduct_phi_block(x, 2, 1, (2,), (3,))
    with pytest.raises(SignatureError, match="outside"):
        coproduct_phi_block(x, -1, 1, (2,), (3,))
    with pytest.raises(SignatureError, match="outside"):
        coproduct_phi_block(x, 1, 2, (2, 2), (3, 3))
    with pytest.raises(SignatureError, match="block length"):
        coproduct_phi_block(x, 1, 1, (2, 2), (3,))


def dense_regroup(m, digits, order):
    """Oracle: move both tensor indices of a dense matrix with numpy."""
    n = len(digits)
    D = m.shape[0]
    axes = list(order) + [n + k for k in order]
    return m.reshape(tuple(digits) * 2).transpose(axes).reshape(D, D)


@pytest.mark.parametrize("dims,start,a,b", [
    ((4, 6, 3), 0, (2, 3), (2, 2)),
    ((3, 4, 6, 2), 1, (2, 2), (2, 3)),
    ((2, 3, 6), 2, (3,), (2,)),
])
def test_coproduct_phi_block_matches_numpy(dims, start, a, b):
    # the block split is one reshape-transpose-reshape of each tensor index
    x = random_element(dims, rng=16, n_terms=40)
    count = len(a)
    stop = start + count
    head, tail = dims[:start], dims[stop:]
    digits = head + tuple(d for pair in zip(a, b) for d in pair) + tail
    order = (list(range(start))
             + [start + 2 * i for i in range(count)]
             + [start + 2 * i + 1 for i in range(count)]
             + list(range(start + 2 * count, len(digits))))
    y = coproduct_phi_block(x, start, count, a, b)
    assert y.sig.dims == head + a + b + tail
    np.testing.assert_array_equal(
        to_dense(y), dense_regroup(to_dense(x), digits, order)
    )


@pytest.mark.parametrize("dims", [(2, 3, 2, 2), (3, 2, 2, 4, 2, 3), (5, 2)])
def test_product_phi_inverse_matches_numpy(dims):
    # fusing slot i with slot level+i is the inverse digit move
    level = len(dims) // 2
    y = random_element(dims, rng=17, n_terms=40)
    order = [i + half for i in range(level) for half in (0, level)]
    x = product_phi_inverse(y, level)
    assert x.sig.dims == tuple(
        p * q for p, q in zip(dims[:level], dims[level:])
    )
    np.testing.assert_array_equal(
        to_dense(x), dense_regroup(to_dense(y), dims, order)
    )
    with pytest.raises(SignatureError):
        product_phi_inverse(y, level + 1)


def big_element(dims, seed):
    """Random terms over ``dims`` plus the edge indices 1, 2, d - 1 and d of
    every slot (d up to 2**61, past any dense check)."""
    x = random_element(dims, rng=seed, n_terms=40)
    edges = [(1, 2, d - 1, d) for d in dims]
    terms = [((tuple(e[k] for e in edges), tuple(e[3 - k] for e in edges)),
              1.0 + k) for k in range(4)]
    return x + AlgebraElement(dims, terms)


def divmod_split(x, start, b):
    # reference for the block split, in Python ints: j - 1 = b*h + l gives
    # j' = h + 1 and j'' = l + 1, the j' first, then the j''
    stop = start + len(b)

    def split(index):
        high, low = zip(*(divmod(j - 1, bi)
                          for j, bi in zip(index[start:stop], b)))
        return (index[:start] + tuple(h + 1 for h in high)
                + tuple(l + 1 for l in low) + index[stop:])

    return [((split(idx.rows), split(idx.cols)), c)
            for idx, c in x.terms.items()]


BIG_A, BIG_B = (2**30, 2**31), (2**31, 2**30)  # slots 2**61 = 2**30 * 2**31


@pytest.mark.parametrize("head, tail", [((), ()), ((5,), (6,))])
def test_coproduct_family_past_the_dense_guard(head, tail):
    # int64 indices near 2**61, term by term against Python-int divmod
    x = big_element(head + (2**61, 2**61) + tail, seed=18)
    y = coproduct_phi_block(x, len(head), 2, BIG_A, BIG_B)
    assert y.sig.dims == head + BIG_A + BIG_B + tail
    assert list(y.terms.items()) == divmod_split(x, len(head), BIG_B)
    if not head:
        assert coproduct_phi(x, BIG_A, BIG_B) == y
        assert product_phi_inverse(y, 2) == x


def test_product_phi_inverse_past_the_dense_guard():
    y = big_element(BIG_A + BIG_B, seed=19)

    def fuse(index):
        return tuple((hi - 1) * bi + lo
                     for hi, lo, bi in zip(index[:2], index[2:], BIG_B))

    x = product_phi_inverse(y, 2)
    assert x.sig.dims == (2**61, 2**61)
    assert list(x.terms.items()) == [((fuse(idx.rows), fuse(idx.cols)), c)
                                     for idx, c in y.terms.items()]


def spliced(x, position, dim):
    # reference for insert_identity_slot, in Python ints: each term once per
    # m in 1..dim, with m spliced into its rows and columns at ``position``
    def splice(index, m):
        return index[:position] + (m,) + index[position:]

    return [((splice(idx.rows, m), splice(idx.cols, m)), c)
            for idx, c in x.terms.items() for m in range(1, dim + 1)]


@pytest.mark.parametrize("x, dim", [
    (random_element((2, 3, 4), rng=20, n_terms=30), 3),
    (big_element((5, 2**61, 3), seed=21), 2),
    (zero((2, 3)), 3),
    (zero((2, 3)), 2**40),  # no term: nothing dim-long is built
], ids=["small", "big", "zero", "zero-huge-dim"])
def test_insert_identity_slot_term_by_term(x, dim):
    dims = x.sig.dims
    for position in range(len(dims) + 1):
        y = insert_identity_slot(x, position, dim)
        assert y.sig.dims == dims[:position] + (dim,) + dims[position:]
        assert list(y.terms.items()) == spliced(x, position, dim)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_sigs = st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3)


@st.composite
def elements(draw):
    dims = tuple(draw(small_sigs))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_terms = draw(st.integers(min_value=0, max_value=6))
    return random_element(dims, rng=seed, n_terms=n_terms)


@given(elements())
@settings(max_examples=50, deadline=None)
def test_adjoint_is_involutive(x):
    assert x.adjoint().adjoint() == x


@given(elements())
@settings(max_examples=50, deadline=None)
def test_subtraction_gives_zero(x):
    assert (x - x).is_zero


@given(elements(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_product_adjoint_reverses(x, seed):
    y = random_element(x.sig, rng=seed, n_terms=5)
    assert (x * y).adjoint().allclose(y.adjoint() * x.adjoint())


def test_level_70_stage_works_without_dense_keys():
    # (4,)*70 has D**2 = 2**280 units, far past int64: index keys must not
    # be packed as row*D + col
    rng = np.random.default_rng(70)
    sig = Signature((4,) * 70)
    u, v, w = (tuple(int(j) for j in rng.integers(1, 5, size=70))
               for _ in range(3))
    x = matrix_unit(sig, u, v) + 2.0 * matrix_unit(sig, w, v)
    y = 3j * matrix_unit(sig, v, w) + matrix_unit(sig, u, w)
    assert x * y == 3j * matrix_unit(sig, u, w) + 6j * matrix_unit(sig, w, w)
    assert list((x + y).terms) == [(u, v), (w, v), (v, w), (u, w)]
    assert (x + y - y) == x
    assert x.adjoint() == matrix_unit(sig, v, u) + 2.0 * matrix_unit(sig, v, w)

    half = Signature((2,) * 70)
    split = coproduct_phi(x, half, half)

    def hi_lo(index):  # j = 2*(j' - 1) + j''
        return (tuple((j - 1) // 2 + 1 for j in index)
                + tuple((j - 1) % 2 + 1 for j in index))

    both = half.concat(half)
    assert split == (matrix_unit(both, hi_lo(u), hi_lo(v))
                     + 2.0 * matrix_unit(both, hi_lo(w), hi_lo(v)))
    assert product_phi_inverse(split, 70) == x


@pytest.mark.parametrize("x", [
    matrix_unit((2, 3), (1, 2), (2, 3)),
    zero((2, 2)),
    random_element((4, 6, 4, 4), 1, 40),
    AlgebraElement((3,), {((1,), (2,)): complex(math.inf, math.nan),
                          ((2,), (1,)): -0.0 + 2j}),
], ids=["unit", "zero", "random", "inf-nan"])
def test_elements_copy_and_pickle(x):
    for back in (copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert type(back) is AlgebraElement and back.sig == x.sig
        for name in ("rows", "cols", "coeff"):
            mine, theirs = getattr(back, name), getattr(x, name)
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
            assert not mine.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            back.coeff = None
        if np.isfinite(x.coeff).all():
            assert back == x


def test_stage_whose_index_radices_multiply_to_2_to_the_63():
    # (7,)*21: the 21 index radices 8 multiply to 2**63, one past int64, so
    # a key bound must stay below it even for a one-term element
    sig = Signature((7,) * 21)
    u, v = (1,) * 21, (7,) * 21
    x = AlgebraElement(sig, {(u, v): 2.0})
    assert x == 2.0 * matrix_unit(sig, u, v)
    assert (x + x).sorted_terms() == [((u, v), 4 + 0j)]
    assert x * x.adjoint() == 4.0 * matrix_unit(sig, u, u)


def _traced_peak(f):
    # f() and the peak of the memory traced while it ran
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The tracemalloc peak of the 20000 x 2000 product below when the merge
# still indexed by boolean masks (numpy 2.4): positions must cost no more
MASK_MERGE_PRODUCT_PEAK = 11.1e6


def test_product_memory_stays_below_a_pair_index_matrix():
    # bulk-algebra's product shape: 20000 x 2000 terms make 104k pairs and
    # 71070 terms.  Building (pairs, 2n) index rows peaked at 23.6 MB; one
    # int64 key per pair and gathering only the kept terms peaked at 11.1
    # with boolean masks, and gathering by int64 positions (with the
    # coefficients made canonical in place) at 10.2.  The constructor
    # reads 20000 terms in bulk at about 3 MB (the per-term read peaked at
    # 5.9), and a 20000 + 20000 sum peaks near 6.1
    sig = (4, 6, 4, 4)
    x = random_element(sig, 3, 20000)
    y = random_element(sig, 4, 2000)
    z, peak = _traced_peak(lambda: x * y)
    assert len(z) == 71070
    assert peak < 1.05 * MASK_MERGE_PRODUCT_PEAK
    terms = dict(x.terms)
    z, peak = _traced_peak(lambda: AlgebraElement(sig, terms))
    assert z == x
    assert peak < 5e6
    w = random_element(sig, 5, 20000)
    z, peak = _traced_peak(lambda: x + w)
    assert len(z) == 34998
    assert peak < 8e6


def test_relabelling_memory_stays_near_its_output():
    # bulk-algebra's coproduct shape: the 20000-term (4,6,4,4) element.
    # Each relabeller writes its output, one slot-major int64 block of
    # about 2.4 MB (1.2 MB fused), once; concatenating, stacking and
    # splitting copies of the index rows peaked at 6.3 and 4.8 MB
    sig, a, b = (4, 6, 4, 4), (2, 3, 2, 2), (2, 2, 2, 2)
    x = random_element(sig, 3, 20000)
    y, peak = _traced_peak(lambda: coproduct_phi(x, a, b))
    assert peak < 3.5e6
    z, peak = _traced_peak(lambda: coproduct_phi_block(x, 0, 4, a, b))
    assert z == y
    assert peak < 3.5e6
    z, peak = _traced_peak(lambda: product_phi_inverse(y, 4))
    assert z == x
    assert peak < 2e6


def test_merge_gathers_by_int64_positions():
    # _kept returns slice(None) when every term stays, else the int64
    # positions of those that do, never a boolean mask; the merge returns
    # the kept terms' positions in the same forms
    coeff = np.array([1.0, 1e-15, 2j, np.nan, -0.0, 3.0], dtype=complex)
    keep, out = algebra._kept(coeff)
    assert keep.dtype == np.int64 and keep.tolist() == [0, 2, 5]
    assert out.tolist() == [1.0, 2j, 3.0]
    keep, out = algebra._kept(np.array([1.0, -2j], dtype=complex))
    assert keep == slice(None) and out.tolist() == [1.0, -2j]
    key = (np.array([7, 3, 7, 3, 5]), 8)
    keep, out = algebra._merged(key, np.array([1, 2, -1, 5, 6], complex))
    assert keep.dtype == np.int64 and keep.tolist() == [1, 4]
    assert out.tolist() == [7.0, 6.0]


@pytest.mark.parametrize("dims", [(2,), (4,), (2, 3), (3, 2, 2), (2, 2, 2, 2)])
def test_all_matrix_units_in_product_order(dims):
    # rows, then columns, each multi-index in itertools.product's order
    indices = list(itertools.product(*(range(1, d + 1) for d in dims)))
    units = list(all_matrix_units(dims))
    assert units == [(rows, cols) for rows in indices for cols in indices]
    assert all(type(u) is MatrixUnitIndex for u in units)
    assert [(u.rows, u.cols) for u in units[-2:]] == [
        (indices[-1], indices[-2]), (indices[-1], indices[-1])]


def test_all_matrix_units_is_lazy():
    # the first units of a stage whose index range no list could hold
    units = all_matrix_units((2**40,))
    assert [next(units) for _ in range(3)] == [
        ((1,), (1,)), ((1,), (2,)), ((1,), (3,))]
    units = all_matrix_units((3, 2**40))
    assert next(units) == ((1, 1), (1, 1))
    assert next(units) == ((1, 1), (1, 2))


@pytest.mark.parametrize("radices", [
    [5] * 40,                      # runs of 27 columns, joined through ranks
    [2**62 + 1, 2**62 + 1, 3],    # a run per column, itself ranked
    [3, 2**62 + 1, 2, 2**61],
])
def test_lex_keys_order_rows_lexicographically(radices):
    rng = np.random.default_rng(len(radices))
    rows = {tuple(int(rng.integers(0, min(r, 4))) if rng.random() < 0.5
                  else int(rng.integers(0, r)) for r in radices)
            for _ in range(60)}
    rows = sorted(rows) + sorted(rows)[:5]  # some rows twice
    perm = rng.permutation(len(rows))
    columns = np.array([rows[i] for i in perm], dtype=np.int64)
    keys, bound = _lex_keys([columns], radices)
    assert 0 <= keys.min() and keys.max() < bound < 2**63
    keys = keys.tolist()
    by_row = {}
    for i, key in zip(perm, keys):
        assert by_row.setdefault(rows[i], key) == key
    assert sorted(by_row, key=by_row.get) == sorted(by_row)
    assert len(set(by_row.values())) == len(by_row)


@pytest.mark.parametrize("dims", [
    (2, 3, 2, 2),
    (3, 2**61),            # two runs, joined through ranks
    (2**20 + 3,) * 3,      # one run; rows' and columns' keys join by ranks
    (4,) * 70,             # runs of 27 columns, joined through ranks
])
def test_lex_keys_of_parts_equal_the_keys_of_their_concatenation(dims):
    # the parts are keyed one by one but joined at once, so where a join
    # ranks, the ranks are taken among the rows of all the parts
    rng = np.random.default_rng(len(dims))
    pool = np.array([[int(rng.integers(1, d + 1)) if rng.random() < 0.7
                      else min(d, 2) for d in dims] for _ in range(12)],
                    dtype=np.int64)
    rows = pool[rng.integers(0, len(pool), 40)]
    # sorted by the first column, so the parts hold different values there
    # and ranks taken part by part would collide
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    parts = [rows[:9], np.asfortranarray(rows[9:14]), rows[14:14],
             rows[14::2], rows[15::2].T.copy().T]
    whole = np.concatenate(parts)
    sig = Signature(dims)
    radices = [d + 1 for d in dims]
    for got, want in [(_lex_keys(parts, radices), _lex_keys([whole], radices)),
                      (_term_keys(sig, parts), _term_keys(sig, [whole]))]:
        assert got[1] == want[1]
        assert got[0].tobytes() == want[0].tobytes()
    # equal rows, and only they, have equal keys across the parts
    by_row = {}
    for row, key in zip(whole.tolist(), _lex_keys(parts, radices)[0].tolist()):
        assert by_row.setdefault(tuple(row), key) == key
    assert len(set(by_row.values())) == len(by_row)


def test_insert_identity_slot_reads_its_bounds():
    x = matrix_unit((2, 3), (1, 2), (2, 1))
    with pytest.raises(SignatureError,
                       match=r"^factor dimension 1 at position 2 is < 2$"):
        insert_identity_slot(x, 1, 1)
    with pytest.raises(SignatureError,
                       match=r"^slot position 3 outside 0\.\.2$"):
        insert_identity_slot(x, 3, 2)


@pytest.mark.parametrize("start, count, message", [
    (0.0, 1, "block start 0.0 is not an integer"),
    (None, 1, "block start None is not an integer"),
    (0, None, "block length None is not an integer"),
    (0, 1.0, "block length 1.0 is not an integer"),
    (2, 1, "block start 2 outside 0..1"),
    (0, 3, "block length 3 outside 1..2"),
])
def test_coproduct_phi_block_reads_its_block(start, count, message):
    x = matrix_unit((2, 6), (2, 5), (1, 2))
    with pytest.raises(SignatureError, match=f"^{re.escape(message)}$"):
        coproduct_phi_block(x, start, count, (2,), (3,))


@pytest.mark.parametrize("level", [1.0, None, 0, -2])
def test_product_phi_inverse_reads_its_level(level):
    y = matrix_unit((2, 3), (1, 2), (2, 1))
    message = (f"level {level} is < 1" if isinstance(level, int)
               else f"level {level!r} is not an integer")
    with pytest.raises(SignatureError, match=f"^{re.escape(message)}$"):
        product_phi_inverse(y, level)


@pytest.mark.parametrize("dims", [(2,) * 40, (DENSE_DIM_GUARD,
                                               DENSE_DIM_GUARD + 1)])
def test_identity_refuses_more_terms_than_the_guard(dims):
    # refused before the diagonal's index rows are built
    total = math.prod(dims)
    with pytest.raises(ResourceGuardError,
                       match=f"^identity term count {total} exceeds guard "
                             f"{DENSE_DIM_GUARD ** 2}$"):
        identity(dims)
