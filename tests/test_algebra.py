"""Core sparse algebra: products, embeddings, the Kronecker coproduct.

Structural identities (coassociativity, compatibility with the unital
embeddings, the *-isomorphism property) are checked exactly on indices,
then cross-checked against dense numpy.kron materializations.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uhfkron.algebra import (
    AlgebraElement,
    Signature,
    _lex_keys,
    all_matrix_units,
    block_permutation,
    coproduct_phi,
    coproduct_phi_block,
    elem_tensor,
    embed_psi,
    from_dense,
    identity,
    insert_identity_slot,
    kron_box,
    matrix_unit,
    product_phi_inverse,
    random_element,
    to_dense,
    zero,
)
from uhfkron.errors import IndexRangeError, ResourceGuardError, SignatureError


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
        assert big.allclose(zero(2), tol=float("inf"))
        assert big.allclose(big)
        assert not (-1.5e308 * big).allclose(1.5e308 * big, tol=1e300)


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
    keys = _lex_keys(columns, radices).tolist()
    by_row = {}
    for i, key in zip(perm, keys):
        assert by_row.setdefault(rows[i], key) == key
    assert sorted(by_row, key=by_row.get) == sorted(by_row)
    assert len(set(by_row.values())) == len(by_row)
