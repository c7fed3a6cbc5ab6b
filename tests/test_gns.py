"""GNS data: purification per factor, expectation identities, the
intertwining unitary for the fused-vs-coproduct representations, and
commutant dimensions read off the frame table.
"""

import ast
import copy
import inspect
import math
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from uhfkron.algebra import (
    AlgebraElement,
    MatrixUnitIndex,
    Signature,
    coproduct_phi,
    identity,
    matrix_unit,
    zero,
)
from uhfkron.atoms import AtomLabel, atom_state
from uhfkron.errors import (
    GramMismatchError,
    ResourceGuardError,
    SignatureError,
    ValidationError,
)
from uhfkron import gns
from uhfkron.gns import (
    commutant_dimension,
    GnsTriplet,
    gns_build,
    gns_intertwiner,
    gns_tensor_phi,
)
from uhfkron.states import (
    GNS_EIG_CUTOFF,
    DensityFactor,
    ProductStateTrunc,
    state_boxtimes,
    state_evaluate,
    state_tensor_phi_eval,
)
from uhfkron.sweeps import (
    _digit_move,
    all_matrix_units,
    block_permutation,
    random_density,
    random_element,
    random_state,
    to_dense,
)

T_PURE = DensityFactor.diagonal([1.0, 0.0])
R_PURE = DensityFactor.diagonal([0.0, 1.0])


# ---------------------------------------------------------------------------
# factor purification
# ---------------------------------------------------------------------------

def _rank(T):
    # the number of kept eigenvalues: the columns of the factor's frame
    return T._frame().shape[1]


def test_factor_pure_state():
    F = T_PURE._frame()
    assert F.shape == (2, 1)
    np.testing.assert_allclose(F.ravel(), [1.0, 0.0])
    # rank-1 purification is the identity representation
    G = gns_build(ProductStateTrunc([T_PURE]))
    np.testing.assert_allclose(
        G.rep(matrix_unit(2, 1, 2)), to_dense(matrix_unit(2, 1, 2))
    )


def test_factor_maximally_mixed():
    cyclic = DensityFactor.maximally_mixed(2)._frame().ravel()
    assert cyclic.shape == (4,)
    np.testing.assert_allclose(
        np.sort(np.abs(cyclic)), [0.0, 0.0, 2**-0.5, 2**-0.5], atol=1e-14
    )
    assert np.vdot(cyclic, cyclic).real == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(4))
def test_factor_expectation_identity(seed):
    # <cyclic, (x (x) I) cyclic> = tr(T x) for arbitrary x
    T = random_density(3, seed=seed)
    cyclic = T._frame().ravel()
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lifted = np.kron(x, np.eye(_rank(T)))
    lhs = complex(np.vdot(cyclic, lifted @ cyclic))
    assert lhs == pytest.approx(complex(np.trace(T.matrix @ x)), abs=1e-12)


@pytest.mark.parametrize("T", [
    random_density(3, seed=5),
    DensityFactor.diagonal([0.5, 0.5, 0.0]),
    random_density(2, seed=6).boxtimes(DensityFactor.diagonal([1.0, 0.0])),
], ids=["full-rank", "rank-2", "boxtimes"])
def test_factor_keeps_its_frame(T):
    # a decomposed factor's frame is its kept eigenvectors (one eigh, in
    # descending order), each scaled by the square root of its eigenvalue;
    # a boxtimes product's is the Kronecker product of its operands'
    # frames.  It is made once, read-only, and every purification of the
    # factor reads that one array: a one-factor triplet's cyclic vector is
    # its ravel
    frame = T._frame()
    if T._operands is None:
        values, vectors = np.linalg.eigh(T.matrix)
        values, vectors = values[::-1], vectors[:, ::-1]
        kept = values > GNS_EIG_CUTOFF
        want = vectors[:, kept] * np.sqrt(values[kept])
    else:
        want = np.kron(*(f._frame() for f in T._operands))
    assert frame.shape == want.shape
    assert frame.tobytes() == want.tobytes()
    assert not frame.flags.writeable
    assert T._frame() is frame
    assert np.array_equal(gns_build(ProductStateTrunc([T])).cyclic,
                          frame.ravel())


# ---------------------------------------------------------------------------
# full triplets
# ---------------------------------------------------------------------------

def test_build_space_dims():
    mixed = ProductStateTrunc([DensityFactor.maximally_mixed(2)] * 2)
    assert gns_build(mixed).space_dim == 16
    atom = ProductStateTrunc([T_PURE, R_PURE])
    assert gns_build(atom).space_dim == 4


def test_build_guard():
    S = ProductStateTrunc([DensityFactor.maximally_mixed(3)] * 4)
    with pytest.raises(ResourceGuardError):
        gns_build(S)  # (3*3)^4 = 6561


def test_tensor_phi_guard():
    # two triplets within the guard can compose past it: 256 * 256 > 4096
    G = gns_build(random_state((2, 2, 2, 2), seed=4))
    with pytest.raises(ResourceGuardError,
                       match="GNS space dimension 65536 exceeds guard 4096"):
        gns_tensor_phi(G, G)


def _all_units(sig):
    # one element with every unit of the stage as a term, in
    # all_matrix_units order, each unit tagged by its place + 1
    return AlgebraElement(sig, {idx: k + 1 for k, idx
                                in enumerate(all_matrix_units(sig))})


@pytest.mark.parametrize("dims,seed", [((2,), 0), ((2, 3), 1), ((3, 3), 2)])
def test_expectation_matches_state_on_all_units(dims, seed):
    S = random_state(dims, seed=seed)
    G = gns_build(S)
    assert np.vdot(G.cyclic, G.cyclic).real == pytest.approx(1.0, abs=1e-12)
    units = list(all_matrix_units(dims))
    for idx in units:
        x = matrix_unit(dims, *idx)
        assert G.expectation(x) == pytest.approx(
            state_evaluate(S, x), abs=1e-10
        )
    # one unit's expectation is its batch value times the coefficient 1
    assert np.array_equal(
        G.expectations(_all_units(dims)),
        [G.expectation(matrix_unit(dims, *idx)) for idx in units])


def test_element_methods_read_the_zero_element():
    # no terms: no positions, and the images of zero
    G = gns_build(random_state((2, 3), seed=5))
    D = G.space_dim
    x = zero(G.sig)
    for out, shape in [(G.rep(x), (D, D)), (G.lambda_vec(x), (D,)),
                       (G.expectations(x), (0,))]:
        assert out.shape == shape and out.dtype == complex
        assert not out.any()


def test_rep_is_star_homomorphism():
    S = random_state((2, 2), seed=3)
    G = gns_build(S)
    x = random_element((2, 2), rng=4)
    y = random_element((2, 2), rng=5)
    np.testing.assert_allclose(G.rep(x * y), G.rep(x) @ G.rep(y), atol=1e-10)
    np.testing.assert_allclose(G.rep(x.adjoint()), G.rep(x).conj().T, atol=1e-12)
    np.testing.assert_allclose(
        G.rep(identity((2, 2))), np.eye(G.space_dim), atol=1e-12
    )


def test_rep_signature_check():
    G = gns_build(random_state((2,), seed=6))
    with pytest.raises(SignatureError):
        G.rep(matrix_unit(3, 1, 1))


def test_rep_of_an_infinite_coefficient_sets_only_its_unit():
    # each unit's coefficient lands only where rep(E_u) has its ones, so
    # inf * 0 = nan never arises elsewhere (and no RuntimeWarning)
    G = gns_build(random_state((2, 2), seed=1))
    idx = MatrixUnitIndex((1, 1), (2, 1))
    out = G.rep(AlgebraElement((2, 2), {idx: complex("inf")}))
    assert not np.isnan(out).any()
    assert np.array_equal(out != 0, G.rep(matrix_unit((2, 2), *idx)) == 1)
    assert np.count_nonzero(out) == 4
    assert np.all(out[out != 0] == complex("inf"))


def test_reads_of_an_infinite_coefficient_do_not_warn():
    # inf * 0 is nan in the coefficient products, as in the state's value;
    # the suite turns a RuntimeWarning into an error
    S = ProductStateTrunc([DensityFactor.diagonal([0.5, 0.5])])
    G = gns_build(S)
    x = AlgebraElement(2, {((1,), (1,)): complex("inf"), ((2,), (2,)): 1e308})
    assert not np.isfinite(G.expectation(x))
    assert not np.isfinite(state_evaluate(S, x))
    lam = G.lambda_vec(x)
    rows = G.rep(matrix_unit(2, 1, 1)).any(axis=1)
    assert not np.isfinite(lam[rows]).any()
    assert np.array_equal(lam[~rows],
                          G.lambda_vec(1e308 * matrix_unit(2, 2, 2))[~rows])


def test_lambda_map():
    S = random_state((2, 3), seed=7)
    G = gns_build(S)
    np.testing.assert_allclose(G.lambda_vec(identity((2, 3))), G.cyclic)
    # linearity
    x = random_element((2, 3), rng=8)
    y = random_element((2, 3), rng=9)
    np.testing.assert_allclose(
        G.lambda_vec(x + 2j * y),
        G.lambda_vec(x) + 2j * G.lambda_vec(y),
        atol=1e-12,
    )
    # lambda through the rep matrix agrees with the factorwise fast path
    np.testing.assert_allclose(G.lambda_vec(x), G.rep(x) @ G.cyclic, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_gns_inner_product_identity(seed):
    # <Lambda(x), Lambda(y)> = omega(x* y)
    S = random_state((2, 2), seed=10 + seed)
    G = gns_build(S)
    x = random_element((2, 2), rng=20 + seed)
    y = random_element((2, 2), rng=30 + seed)
    lhs = complex(np.vdot(G.lambda_vec(x), G.lambda_vec(y)))
    rhs = state_evaluate(S, x.adjoint() * y)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    nrm2 = float(np.vdot(G.lambda_vec(x), G.lambda_vec(x)).real)
    assert nrm2 == pytest.approx(state_evaluate(S, x.adjoint() * x).real, abs=1e-10)


def test_tensor_phi_triplet_cyclic_state():
    # the coproduct composition's cyclic state is the boxtimes product state
    S = random_state((2,), seed=40)
    R = random_state((3,), seed=41)
    G = gns_tensor_phi(gns_build(S), gns_build(R))
    boxed = state_boxtimes(S, R)
    assert G.space_dim == gns_build(S).space_dim * gns_build(R).space_dim
    for idx in all_matrix_units(boxed.sig):
        x = matrix_unit(boxed.sig, *idx)
        assert G.expectation(x) == pytest.approx(
            state_evaluate(boxed, x), abs=1e-10
        )


def _compose(tree):
    # triplet and product state of a tree: a state, or a pair of trees
    # composed through the coproduct
    if isinstance(tree, ProductStateTrunc):
        return gns_build(tree), tree
    (GT, T), (GR, R) = map(_compose, tree)
    return gns_tensor_phi(GT, GR), state_boxtimes(T, R)


def _factor_image(F, j, k, part):
    # the image of E_jk under the purification with frame F (dim x rank):
    # E_jk (x) I_rank for part "rep", and for part "lambda" that applied
    # to the cyclic vector, e_j (x) F[k-1]
    dim, rank = F.shape
    e = np.eye(dim)
    if part == "rep":
        return np.kron(np.outer(e[j - 1], e[k - 1]), np.eye(rank))
    return np.kron(e[j - 1], F[k - 1])


def _reference(tree, part):
    # signature and per-unit reference map of a tree for part "rep" or
    # "lambda": a state's unit is the Kronecker chain of its factors'
    # units; a pair's unit is split by coproduct_phi and the parts' units
    # are Kronecker-multiplied
    if isinstance(tree, ProductStateTrunc):
        factors = [T._frame() for T in tree.factors]

        def unit(idx):
            out = np.ones(1, dtype=complex)
            for f, j, k in zip(factors, idx.rows, idx.cols):
                out = np.kron(out, _factor_image(f, j, k, part))
            return out
        return tree.sig, unit
    (a, left), (b, right) = (_reference(t, part) for t in tree)
    n = a.level

    def unit(idx):
        y = coproduct_phi(matrix_unit(a.product(b), *idx), a, b)
        ((split, _),) = y.terms.items()
        return np.kron(
            left(MatrixUnitIndex(split.rows[:n], split.cols[:n])),
            right(MatrixUnitIndex(split.rows[n:], split.cols[n:])),
        )
    return a.product(b), unit


def _mixed_state(dims, full_rank, seed):
    # full-rank factors at the slots in full_rank, pure ones elsewhere, so
    # factor spaces differ from the slot dimensions
    rng = np.random.default_rng(seed)
    return ProductStateTrunc([
        random_density(d, seed=seed + i) if i in full_rank else
        DensityFactor.pure(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        for i, d in enumerate(dims)
    ])


_TREES = [
    (_mixed_state((2, 3), {0}, 60), _mixed_state((3, 2), set(), 61)),
    ((random_state((2,), seed=62), random_state((3,), seed=63)),
     random_state((2,), seed=64)),
    (random_state((2,), seed=65),
     (random_state((3,), seed=66), random_state((2,), seed=67))),
]
_TREE_IDS = ["unequal-slots", "nested-left", "nested-right"]


@pytest.mark.parametrize("tree", _TREES, ids=_TREE_IDS)
def test_tensor_phi_composed_units(tree):
    G, boxed = _compose(tree)
    sig, ref_rep = _reference(tree, "rep")
    _, ref_lambda = _reference(tree, "lambda")
    assert G.sig == boxed.sig == sig
    for idx in all_matrix_units(sig):
        x = matrix_unit(sig, *idx)
        np.testing.assert_allclose(G.rep(x), ref_rep(idx), atol=1e-15)
        np.testing.assert_allclose(G.lambda_vec(x), ref_lambda(idx),
                                   atol=1e-15)
        assert G.expectation(x) == pytest.approx(
            state_evaluate(boxed, x), abs=1e-10
        )


@pytest.mark.parametrize("tree", _TREES, ids=_TREE_IDS)
def test_one_unit_expectation_equals_the_batch(tree):
    G, _ = _compose(tree)
    units = list(all_matrix_units(G.sig))
    batch = G.expectations(_all_units(G.sig))
    # a one-term expectation is the batch value times the coefficient 1+0j
    for u, value in zip(units, batch):
        assert G.expectation(matrix_unit(G.sig, *u)) == value


def _rep_loop(G, x):
    # rep(x) as a sum of the unit images, one term after another
    out = np.zeros((G.space_dim, G.space_dim), dtype=complex)
    for idx, coeff in x.terms.items():
        out += coeff * G.rep(matrix_unit(G.sig, *idx))
    return out


def _lambda_loop(G, x):
    # lambda(x) as a running sum of the unit vectors, in term order
    out = np.zeros(G.space_dim, dtype=complex)
    for idx, coeff in x.terms.items():
        out += coeff * G.lambda_vec(matrix_unit(G.sig, *idx))
    return out


def _tables(G):
    # the frame tables pi0 and C = cyclic[pi0], one row per row-major flat
    # index: the keyed tables past their sum(_weights) leading rows
    shift = int(G._weights.sum())
    return G._keyed_pi0[shift:], G._keyed_frame[shift:]


def _frame_formulas(G, x):
    # rep(x), lambda(x) and the per-term expectations of x read off pi0
    # and cyclic: the unit of a term with row and column flat indices i, k
    # has its ones at (pi0[i, t], pi0[k, t])
    i, k = (np.ravel_multi_index(tuple((side - 1).T), G.sig.dims)
            for side in (x.rows, x.cols))
    pi0 = _tables(G)[0]
    rows, cols = pi0[i], pi0[k]
    rep = np.zeros((G.space_dim, G.space_dim), dtype=complex)
    rep[rows, cols] = x.coeff[:, None]
    lam = np.zeros(G.space_dim, dtype=complex)
    np.add.at(lam, rows, x.coeff[:, None] * G.cyclic[cols])
    return rep, lam, np.sum(G.cyclic[rows].conj() * G.cyclic[cols], axis=1)


@pytest.mark.parametrize("G", [
    gns_build(random_state((2, 2), seed=81)),
    gns_build(_mixed_state((2, 3), {0}, 82)),
    gns_build(ProductStateTrunc([T_PURE, R_PURE, T_PURE])),
    *(_compose(tree)[0] for tree in _TREES),
], ids=["full-rank", "mixed-rank", "atom", *_TREE_IDS])
def test_element_images_equal_the_per_term_loops_byte_for_byte(G):
    elements = [zero(G.sig), identity(G.sig)] + [
        random_element(G.sig, rng=seed, n_terms=n)
        for seed, n in [(83, 1), (84, 8), (85, 60)]
    ]
    elements.append(elements[-1].adjoint() * elements[-2])
    # the frame table holds cyclic[pi0]: D entries, one row per unit side
    pi0, frame = _tables(G)
    assert frame.tobytes() == G.cyclic[pi0].tobytes()
    assert frame.size == G.space_dim
    for x in elements:
        rep, lam = G.rep(x).tobytes(), G.lambda_vec(x).tobytes()
        assert rep == _rep_loop(G, x).tobytes()
        assert lam == _lambda_loop(G, x).tobytes()
        want = _frame_formulas(G, x)
        assert rep == want[0].tobytes() and lam == want[1].tobytes()
        assert G.expectations(x).tobytes() == want[2].tobytes()


def _flat_index_reads(G, x):
    # expectations, expectation, rep and lambda_vec as the flat-index
    # tables read them: 2T 0-based flat indices, rows then columns, one
    # gather of the unpadded frame table and a runtime conjugate
    flat = (np.concatenate((x.rows, x.cols)).dot(G._weights)
            - G._weights.sum())
    T = len(x.coeff)
    pi0, frame = _tables(G)
    F = frame.take(flat, axis=0)
    values = (F[:T].conj() * F[T:]).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(values.dot(x.coeff))
    at = pi0.take(flat, axis=0)
    rep = np.zeros((G.space_dim, G.space_dim), dtype=complex)
    rep[at[:T], at[T:]] = x.coeff[:, None]
    lam = np.zeros(G.space_dim, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(lam, at[:T], x.coeff[:, None] * F[T:])
    return values, value, rep, lam


def _reads(G, x):
    return (G.expectations(x), G.expectation(x), G.rep(x), G.lambda_vec(x))


@pytest.mark.parametrize("tree", [
    random_state((2, 2), seed=93),
    _mixed_state((2, 3), {0}, 94),
    ProductStateTrunc([T_PURE, R_PURE, T_PURE]),
    *_TREES,
], ids=["full-rank", "mixed-rank", "pure", *_TREE_IDS])
def test_keyed_reads_equal_the_flat_index_reads_byte_for_byte(tree):
    # the keyed tables (shift leading rows, the conjugate tabulated) read
    # the same bits as flat-index reads of the unpadded tables, for every
    # unit, multi-term elements and the zero element
    G, _ = _compose(tree)
    rng = np.random.default_rng(95)
    elements = [matrix_unit(G.sig, *idx) for idx in all_matrix_units(G.sig)]
    elements += [random_element(G.sig, rng=rng, n_terms=n)
                 for n in rng.integers(2, 40, size=20)]
    elements.append(zero(G.sig))
    assert all(len(table) == G.sig.total_dim for table in _tables(G))
    for x in elements:
        for got, want in zip(_reads(G, x), _flat_index_reads(G, x)):
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_expectation_leaves_the_error_state_as_it_found_it():
    # expectation silences overflow and invalid for its own call only, and
    # an inf * 0 inside it warns nowhere, also when it raises
    S = ProductStateTrunc([DensityFactor.diagonal([0.5, 0.5])])
    G = gns_build(S)
    finite = matrix_unit(2, 1, 1) + 2j * matrix_unit(2, 1, 2)
    infinite = AlgebraElement(2, {((1,), (1,)): complex("inf"),
                                  ((2,), (2,)): 1e308})
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        before = np.geterr()
        assert G.expectation(finite) == pytest.approx(0.5, abs=1e-15)
        assert np.geterr() == before
        assert not np.isfinite(G.expectation(infinite))
        assert np.geterr() == before
        with pytest.raises(SignatureError):
            G.expectation(matrix_unit((2, 2), (1, 1), (1, 1)))
        assert np.geterr() == before == {
            "divide": "raise", "over": "raise", "under": "raise",
            "invalid": "raise"}


@pytest.mark.parametrize("second", [complex("-inf"), 1e308],
                         ids=["inf-minus-inf", "inf-plus-1e308"])
def test_non_finite_coefficients_give_non_finite_values_without_warning(
        second):
    # inf * E_11 + second * E_22: the state's value, its reading through
    # the coproduct and the GNS expectation are non-finite (not necessarily
    # the same bits), warn nowhere and leave the error state as they found it
    S = ProductStateTrunc([DensityFactor.diagonal([0.5, 0.5])])
    terms = {((1,), (1,)): complex("inf"), ((2,), (2,)): second}
    x, fused = AlgebraElement(2, terms), AlgebraElement(4, terms)
    reads = [lambda: state_evaluate(S, x),
             lambda: state_tensor_phi_eval(S, S, fused),
             lambda: gns_build(S).expectation(x)]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        before = np.geterr()
        for read in reads:
            assert not np.isfinite(read())
            assert np.geterr() == before


# ---------------------------------------------------------------------------
# a state keeps its triplet, and a triplet is immutable
# ---------------------------------------------------------------------------

def test_a_state_keeps_its_triplet():
    # a repeat build returns the kept triplet, in gns_build and its caller
    # only; a refused build keeps nothing and is refused again
    S = _mixed_state((2, 3), {0}, 96)
    G = gns_build(S)
    assert gns_build(S) is G
    assert _python_calls(lambda: gns_build(S)) <= 3
    big = random_state((2,) * 7, seed=97)
    for _ in range(2):
        with pytest.raises(ResourceGuardError, match="GNS space dimension "
                                                     "16384 exceeds guard 4096"):
            gns_build(big)
        assert not hasattr(big, "_gns")


_KEPT = ("cyclic", "_keyed_pi0", "_keyed_frame", "_keyed_conj")


@pytest.mark.parametrize("make", [
    copy.copy, copy.deepcopy, lambda S: pickle.loads(pickle.dumps(S)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_state_build_their_own_triplet(make):
    S = _mixed_state((2, 3), {0}, 98)
    G = gns_build(S)
    back = make(S)
    H = gns_build(back)
    assert H is not G and gns_build(back) is H
    for name in _KEPT:
        assert getattr(H, name).tobytes() == getattr(G, name).tobytes()


@pytest.mark.parametrize("G", [
    gns_build(random_state((2, 2), seed=99)),
    gns_tensor_phi(gns_build(random_state((2,), seed=100)),
                   gns_build(_mixed_state((3,), set(), 101))),
], ids=["built", "composed"])
def test_a_triplet_is_immutable(G):
    for name in (*GnsTriplet.__slots__, "other"):
        with pytest.raises(AttributeError, match="GnsTriplet is immutable"):
            setattr(G, name, None)
    for a in (G._weights, *(getattr(G, name) for name in _KEPT)):
        assert not a.flags.writeable
    # copies and pickles rebuild it from its factors and table
    for back in (copy.copy(G), copy.deepcopy(G),
                 pickle.loads(pickle.dumps(G))):
        assert back.sig == G.sig and back.space_dim == G.space_dim
        for name in _KEPT:
            assert getattr(back, name).tobytes() == getattr(G, name).tobytes()


# ---------------------------------------------------------------------------
# the intertwining unitary
# ---------------------------------------------------------------------------

def check_intertwines(S, R, tol):
    U = gns_intertwiner(S, R)
    D = U.shape[0]
    np.testing.assert_allclose(U.conj().T @ U, np.eye(D), atol=tol)

    G_fused = gns_build(state_boxtimes(S, R))
    G_tensor = gns_tensor_phi(gns_build(S), gns_build(R))
    for idx in all_matrix_units(G_fused.sig):
        x = matrix_unit(G_fused.sig, *idx)
        lhs = U @ G_fused.rep(x) @ U.conj().T
        np.testing.assert_allclose(lhs, G_tensor.rep(x), atol=tol)
    return U


def test_intertwiner_pure_atoms_level1():
    S = ProductStateTrunc([T_PURE])
    R = ProductStateTrunc([R_PURE])
    U = check_intertwines(S, R, 1e-10)
    assert U.shape == (4, 4)


def test_intertwiner_trace_states_level1():
    S = ProductStateTrunc([DensityFactor.maximally_mixed(2)])
    U = check_intertwines(S, S, 1e-10)
    assert U.shape == (16, 16)


def test_intertwiner_of_factors_at_the_trace_tolerance():
    # each trace is 1 + 9e-11, within DENSITY_VALIDATE_TOL; the fused
    # state's is 1 + 1.8e-10, and it is built without a second check
    S = ProductStateTrunc([DensityFactor.diagonal([0.50000000009, 0.5])])
    U = check_intertwines(S, S, 1e-8)
    assert U.shape == (16, 16)


def test_intertwiner_random_mixed():
    S = random_state((2,), seed=50)
    R = random_state((3,), seed=51)
    check_intertwines(S, R, 1e-8)


def test_intertwiner_maps_lambda_vectors():
    # defining property on arbitrary elements, not just units
    S = random_state((2,), seed=52)
    R = random_state((2,), seed=53)
    U = gns_intertwiner(S, R)
    G_fused = gns_build(state_boxtimes(S, R))
    G_tensor = gns_tensor_phi(gns_build(S), gns_build(R))
    for seed in range(5):
        x = random_element(G_fused.sig, rng=seed, n_terms=6)
        np.testing.assert_allclose(
            U @ G_fused.lambda_vec(x), G_tensor.lambda_vec(x), atol=1e-8
        )


def _spanning_families(S, R):
    # the two families as per-unit column stacks over all_matrix_units
    G_fused = gns_build(state_boxtimes(S, R))
    G_tensor = gns_tensor_phi(gns_build(S), gns_build(R))
    units = [matrix_unit(G_fused.sig, *u)
             for u in all_matrix_units(G_fused.sig)]
    return (np.column_stack([G_fused.lambda_vec(x) for x in units]),
            np.column_stack([G_tensor.lambda_vec(x) for x in units]))


@pytest.mark.parametrize("S,R,square", [
    (random_state((2, 3), seed=56), random_state((2, 2), seed=57), True),
    (_mixed_state((2, 3), {1}, 58), _mixed_state((2, 2), set(), 59), False),
], ids=["full-rank", "pure-factors"])
def test_intertwiner_matches_pseudo_inverse(S, R, square):
    A, B = _spanning_families(S, R)
    assert (A.shape[0] == A.shape[1]) == square
    gram = A @ A.conj().T
    off_diagonal = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off_diagonal)) <= 1e-14
    np.testing.assert_allclose(
        gns_intertwiner(S, R), B @ np.linalg.pinv(A), rtol=0, atol=1e-11
    )


_PAIRS = [
    (random_state((2, 3), seed=56), random_state((2, 2), seed=57)),
    (_mixed_state((2, 3), {1}, 58), _mixed_state((2, 2), {0}, 59)),
    (_mixed_state((3, 2), set(), 60), _mixed_state((2, 2), set(), 61)),
    (atom_state(AtomLabel(2, (1, 2)), 2), atom_state(AtomLabel(2, (2, 1)), 2)),
    (ProductStateTrunc([DensityFactor.diagonal([1 - 2e-12, 2e-12])]),) * 2,
]
_PAIR_IDS = ["full-rank", "mixed-rank", "pure", "atom", "small-eigenvalue"]


@pytest.mark.parametrize("S,R", _PAIRS, ids=_PAIR_IDS)
def test_tensor_phi_is_the_concatenated_triplet_through_phi(S, R):
    # (pi_S (x) pi_R) o phi, bit for bit: the composed triplet reads every
    # fused unit x as the triplet of the concatenated state reads
    # coproduct_phi(x); the units' tags keep their rep images apart
    G = gns_tensor_phi(gns_build(S), gns_build(R))
    H = gns_build(S.concat(R))
    x = _all_units(G.sig)
    y = coproduct_phi(x, S.sig, R.sig)
    assert G.rep(x).tobytes() == H.rep(y).tobytes()
    assert G.expectations(x).tobytes() == H.expectations(y).tobytes()
    for idx in all_matrix_units(G.sig):
        unit = matrix_unit(G.sig, *idx)
        assert (G.lambda_vec(unit).tobytes()
                == H.lambda_vec(coproduct_phi(unit, S.sig, R.sig)).tobytes())


@pytest.mark.parametrize("S,R", _PAIRS, ids=_PAIR_IDS)
def test_intertwiner_is_the_digit_permutation(S, R):
    # every entry of U is exactly 0 or 1, with one 1 per row and column;
    # on full-rank pairs U is the coproduct's digit move applied to the
    # purified slots, block_permutation((a_l, r_l), (b_l, s_l))
    U = gns_intertwiner(S, R)
    assert np.array_equal(U, U.real.astype(bool))
    assert (U.real.sum(axis=0) == 1).all() and (U.real.sum(axis=1) == 1).all()
    ranks = [[_rank(f) for f in state.factors] for state in (S, R)]
    if ranks == [list(S.sig.dims), list(R.sig.dims)]:
        a, b = ([n for pair in zip(state.sig.dims, r) for n in pair]
                for state, r in zip((S, R), ranks))
        assert np.array_equal(U, block_permutation(a, b))


def test_intertwiner_pure_level5():
    # D = 4^5 = 1024 over 16^5 fused units: a dense spanning family would
    # hold 2^30 entries, a frame holds D integers
    S = ProductStateTrunc([T_PURE] * 5)
    U = gns_intertwiner(S, S)
    assert U.shape == (1024, 1024)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(1024), atol=1e-12)
    G_fused = gns_build(state_boxtimes(S, S))
    G_tensor = gns_tensor_phi(gns_build(S), gns_build(S))
    for seed in range(3):
        x = random_element(G_fused.sig, rng=seed, n_terms=40)
        np.testing.assert_allclose(
            U @ G_fused.lambda_vec(x), G_tensor.lambda_vec(x), atol=1e-12
        )


def _seam_frame(monkeypatch, T, frame):
    # gns reads ``frame`` as the input factor T's purification frame, while
    # a fused factor still reads T's own: the Kronecker product of its
    # operands' unseamed frames
    own = DensityFactor._frame

    def seamed(f):
        if f is T:
            return frame
        if f._operands is None:
            return own(f)
        return np.kron(*(own(g) for g in f._operands))

    monkeypatch.setattr(DensityFactor, "_frame", seamed)


def test_intertwiner_detects_a_gram_mismatch(monkeypatch):
    # purifying another full-rank state's factor in place of S's keeps
    # every space dimension, but the composed cyclic vector is another one
    S = random_state((2,), seed=54)
    R = random_state((2,), seed=55)
    other = random_state((2,), seed=60).factors[0]
    _seam_frame(monkeypatch, S.factors[0], other._frame())
    with pytest.raises(GramMismatchError,
                       match="cyclic vectors disagree by"):
        gns_intertwiner(S, R)


def test_intertwiner_builds_no_triplet(monkeypatch):
    # the intertwiner reads the factor purifications only
    def refuse(self, *args):
        raise AssertionError("triplet built")

    monkeypatch.setattr(GnsTriplet, "__init__", refuse)
    S, R = _PAIRS[0]
    assert np.array_equal(gns_intertwiner(S, R),
                          block_permutation((2, 2, 3, 3), (2, 2, 2, 2)))


def test_intertwiner_guards_the_space_dimension():
    # full-rank (8,) and (9,): D = 8 * 9 * 8 * 9 = 5184
    with pytest.raises(ResourceGuardError,
                       match="GNS space dimension 5184 exceeds guard 4096"):
        gns_intertwiner(random_state((8,), seed=88),
                        random_state((9,), seed=89))


def test_intertwiner_refuses_states_of_different_levels():
    with pytest.raises(SignatureError, match="levels differ: 1 vs 2"):
        gns_intertwiner(random_state((2,), seed=50),
                        random_state((2, 2), seed=51))


@pytest.mark.parametrize("small", [2e-12, 1e-7])
def test_intertwiner_keeps_the_rank_of_small_eigenvalues(small):
    # the fused factor's frame is the Kronecker product of its operands':
    # the products small**2 and (1 - small) * small stay kept however far
    # below the cutoff they fall, so both spaces have dimension (2 x 2)^2
    S = ProductStateTrunc([DensityFactor.diagonal([1 - small, small])])
    U = check_intertwines(S, S, 1e-13)
    assert U.shape == (16, 16)


@pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
def test_intertwiner_refuses_a_gram_defect_past_gram_tol(monkeypatch,
                                                         factor, raises):
    # the purification of S's factor has its cyclic vector scaled by s, so
    # the composed cyclic vector moves by (s - 1) times its own entries: s
    # is chosen to put the largest move at factor * GRAM_TOL
    S = random_state((2,), seed=54)
    R = random_state((2,), seed=55)
    composed = gns_tensor_phi(gns_build(S), gns_build(R)).cyclic
    _seam_frame(monkeypatch, S.factors[0], S.factors[0]._frame() * (
        1 + factor * gns.GRAM_TOL / np.max(np.abs(composed))))
    defect = np.max(np.abs(gns._kron_chain(S.factors + R.factors)
                           - composed))
    assert defect == pytest.approx(factor * gns.GRAM_TOL, rel=1e-6)
    if raises:
        with pytest.raises(GramMismatchError,
                           match=f"disagree by {defect:.3e} "
                                 r"\(> 1e-08\)"):
            gns_intertwiner(S, R)
    else:
        assert gns_intertwiner(S, R).shape == (16, 16)


# ---------------------------------------------------------------------------
# the purification of a fused factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("S,R", _PAIRS, ids=_PAIR_IDS)
def test_fused_slot_purifies_to_the_tensor_product_of_its_operands(S, R):
    # pi_{S box R} = (pi_S (x) pi_R) o phi slot by slot: moved by the
    # slot's digit move, a fused factor's cyclic vector is the tensor
    # product of its operands' cyclic vectors, byte for byte
    fused = state_boxtimes(S, R)
    for f, g, h in zip(S.factors, R.factors, fused.factors):
        F, G = f._frame(), g._frame()
        (a, r), (b, s) = F.shape, G.shape
        moved = _digit_move((a, b, r, s))
        assert (h._frame().ravel()[moved].tobytes()
                == np.multiply.outer(F.ravel(), G.ravel()).ravel().tobytes())


_LEVEL1_PAIRS = [
    (random_state((2,), seed=90), random_state((3,), seed=91)),
    (_mixed_state((3,), set(), 92), random_state((2,), seed=93)),
    *((ProductStateTrunc([DensityFactor.diagonal([1 - eps, eps])]),) * 2
      for eps in (1e-3, 1e-7, 2e-12)),
]


@pytest.mark.parametrize("S,R", _LEVEL1_PAIRS, ids=[
    "full-rank", "pure-full-rank", "eps-1e-3", "eps-1e-7", "eps-2e-12"])
def test_intertwiner_moves_the_fused_cyclic_vector_exactly_at_level_one(S, R):
    # one slot, no Kronecker chain to round: U carries the fused cyclic
    # vector onto the composed one exactly
    U = gns_intertwiner(S, R)
    fused = gns_build(state_boxtimes(S, R)).cyclic
    composed = gns_tensor_phi(gns_build(S), gns_build(R)).cyclic
    assert np.array_equal(U @ fused, composed)


_TRIPLES = [((2,), (2,), (3,)), ((2, 2),) * 3, ((3,), (2,), (2,))]
_TRIPLE_IDS = ["2-2-3", "22-22-22", "3-2-2"]


def _triple(dims):
    return [random_state(d, seed=94 + i) for i, d in enumerate(dims)]


@pytest.mark.parametrize("dims", _TRIPLES, ids=_TRIPLE_IDS)
def test_tensor_phi_bracketings_are_one_triplet(dims):
    # (pi_S box pi_R) box pi_Q and pi_S box (pi_R box pi_Q) are one triplet,
    # byte for byte (full-rank (2,2) thrice: D = 4096)
    GS, GR, GQ = map(gns_build, _triple(dims))
    left = gns_tensor_phi(gns_tensor_phi(GS, GR), GQ)
    right = gns_tensor_phi(GS, gns_tensor_phi(GR, GQ))
    assert left.sig == right.sig
    for name in ("_keyed_pi0", "_keyed_frame", "_keyed_conj", "cyclic"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _table_by_builder(tree):
    # signature, space dimension and pi0 of a tree, made as the builders
    # made them when each worked its own table out: a state's is the digit
    # move of its space digits (a_1, r_1, ..., a_L, r_L); a pair's is the
    # concatenated table pi0_T D_R + pi0_R, its rows moved by the fused
    # digit move (a_1, b_1, ..., a_L, b_L)
    if isinstance(tree, ProductStateTrunc):
        legs = [n for f in tree.factors for n in f._frame().shape]
        return (tree.sig, math.prod(legs),
                _digit_move(legs).reshape(tree.sig.total_dim, -1))
    (a, D_T, pi_T), (b, D_R, pi_R) = map(_table_by_builder, tree)
    fused = a.product(b)
    block = np.add.outer(pi_T * D_R, pi_R).transpose(0, 2, 1, 3).reshape(
        fused.total_dim, -1)
    pi0 = np.empty_like(block)
    pi0[_digit_move([n for pair in zip(a.dims, b.dims) for n in pair])] = block
    return fused, D_T * D_R, pi0


_TABLE_TREES = [
    *(tree for pair in _PAIRS for tree in (*pair, pair)),
    *_TREES,
    *(tree for S, R, Q in map(_triple, _TRIPLES)
      for tree in (((S, R), Q), (S, (R, Q)))),
]
_TABLE_TREE_IDS = [
    *(f"{name}-{part}" for name in _PAIR_IDS for part in ("S", "R", "pair")),
    *_TREE_IDS,
    *(f"{name}-{side}" for name in _TRIPLE_IDS for side in ("left", "right")),
]


@pytest.mark.parametrize("tree", _TABLE_TREES, ids=_TABLE_TREE_IDS)
def test_triplet_table_is_the_one_each_builder_made(tree):
    # the one transpose of arange(D) over the factors' digits is, byte for
    # byte, the table gns_build and gns_tensor_phi each worked out
    G, _ = _compose(tree)
    sig, D, pi0 = _table_by_builder(tree)
    table = _tables(G)[0]
    assert G.sig == sig and G.space_dim == D
    assert table.dtype == pi0.dtype and table.shape == pi0.shape
    assert table.tobytes() == pi0.tobytes()


@pytest.mark.parametrize("S,R", _PAIRS, ids=_PAIR_IDS)
def test_carried_spectrum_agrees_with_the_fused_matrix_own(S, R):
    # the oracle: each fused factor rebuilt from its matrix alone, so that
    # its GNS runs its own eigh, independent of the operands' frames
    fused = state_boxtimes(S, R)
    oracle = ProductStateTrunc([DensityFactor(f.matrix)
                                for f in fused.factors])
    x = _all_units(fused.sig)
    units = [matrix_unit(fused.sig, *u) for u in all_matrix_units(fused.sig)]
    carried = gns_build(fused).expectations(x)
    own = gns_build(oracle).expectations(x)
    values = np.array([state_evaluate(fused, u) for u in units])
    assert np.max(np.abs(carried - own)) <= 1e-12
    assert np.max(np.abs(carried - values)) <= 1e-12
    for f, s, r in zip(fused.factors, S.factors, R.factors):
        assert _rank(f) == _rank(s) * _rank(r)


def test_gns_decomposes_each_input_factor_once(monkeypatch):
    # gns_intertwiner decomposes each input factor at most once and the
    # fused factors never; a repeated build decomposes nothing
    decomposed = []
    eigh = np.linalg.eigh

    def counted(m):
        decomposed.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    S = random_state((2, 3), seed=86)
    R = _mixed_state((2, 2), {1}, 87)
    gns_intertwiner(S, R)
    inputs = [f.matrix for f in S.factors + R.factors]
    assert len(decomposed) == len(inputs)
    assert all(any(m is f for f in inputs) for m in decomposed)
    decomposed.clear()
    gns_build(S)
    gns_intertwiner(S, R)
    assert decomposed == []


def test_gns_module_decomposes_nothing():
    # the frames are the factors' own: gns calls no numpy.linalg function
    tree = ast.parse(inspect.getsource(gns))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "linalg"]


def test_copies_of_a_fused_factor_keep_its_rank():
    # a copy keeps the fused factor's operands, so its rank is 2 x 2, not
    # the 3 that the matrix's own eigh keeps at the cutoff
    S = ProductStateTrunc([DensityFactor.diagonal([1 - 2e-12, 2e-12])])
    fused = state_boxtimes(S, S)
    assert _rank(DensityFactor(fused.factors[0].matrix)) == 3
    for back in [copy.copy(fused), copy.deepcopy(fused),
                 pickle.loads(pickle.dumps(fused))]:
        assert _rank(back.factors[0]) == 4
        assert gns_build(back).space_dim == 16


# ---------------------------------------------------------------------------
# commutant dimensions
# ---------------------------------------------------------------------------

def test_commutant_atom_states():
    atom = ProductStateTrunc([T_PURE, R_PURE, T_PURE])
    assert commutant_dimension(gns_build(atom)) == 1
    assert commutant_dimension(gns_build(ProductStateTrunc([T_PURE]))) == 1


def test_commutant_trace_state():
    trace = ProductStateTrunc([DensityFactor.maximally_mixed(2)])
    assert commutant_dimension(gns_build(trace)) == 4


def test_commutant_of_tensor_phi_pure():
    S = ProductStateTrunc([T_PURE])
    R = ProductStateTrunc([R_PURE])
    G = gns_tensor_phi(gns_build(S), gns_build(R))
    assert commutant_dimension(G) == 1


@pytest.mark.parametrize("G", [
    gns_build(random_state((2, 2), seed=71)),
    gns_tensor_phi(gns_build(random_state((2,), seed=72)),
                   gns_build(_mixed_state((2,), set(), 73))),
    gns_build(_mixed_state((3,), set(), 74)),
    gns_build(random_state((4,), seed=75)),
    gns_build(_mixed_state((2, 3), {0}, 76)),
    gns_build(ProductStateTrunc([T_PURE, R_PURE, T_PURE])),
], ids=["full-rank", "composed", "pure", "full-rank-4", "mixed-rank-2x3",
        "atom-2x2x2"])
def test_commutant_matches_stacked_kron_reference(G):
    D = G.space_dim
    eye = np.eye(D, dtype=complex)
    images = [G.rep(matrix_unit(G.sig, *u)) for u in all_matrix_units(G.sig)]
    stack = np.vstack([np.kron(r, eye) - np.kron(eye, r.T) for r in images])
    sv = np.linalg.svd(stack, compute_uv=False)
    assert commutant_dimension(G) == D * D - int(np.sum(sv > 1e-8))


@pytest.mark.parametrize("S", [
    random_state((2, 3), seed=77),
    random_state((2, 2, 2), seed=78),
    ProductStateTrunc([DensityFactor.diagonal([1.0, 0.0, 0.0, 0.0])] * 3),
    ProductStateTrunc([DensityFactor.diagonal([1.0, 0.0, 0.0, 0.0])] * 4),
    random_state((2, 2, 2, 2), seed=81),
], ids=["full-rank-2x3", "full-rank-2x2x2", "pure-4x4x4", "pure-4x4x4x4",
        "full-rank-2x2x2x2"])
def test_commutant_beyond_the_stacked_reference(S):
    # the stacked system has N^2 D^4 entries (up to 2^48 here), too many
    # to solve; a unital rep x |-> x (x) I_m has commutant dimension m^2
    # with m = prod_i rank_i
    G = gns_build(S)
    ranks = [_rank(f) for f in S.factors]
    assert commutant_dimension(G) == math.prod(r * r for r in ranks)


# The proof behind commutant_dimension, checked densely: pi0 holds each of
# 0..D-1 once, and rep(E_ij) = W (E_ij (x) I_m) W^T with W the permutation
# matrix sending e_i (x) e_t to e_{pi0[i,t]}, for every unit.
@pytest.mark.parametrize("tree", [
    random_state((2, 2), seed=91),
    _mixed_state((2, 3), {0}, 92),
    ProductStateTrunc([T_PURE, R_PURE, T_PURE]),
    *_TREES,
], ids=["full-rank", "mixed-rank", "pure", *_TREE_IDS])
def test_frame_table_conjugates_every_unit_image(tree):
    G, _ = _compose(tree)
    pi0 = _tables(G)[0]
    D, (N, m) = G.space_dim, pi0.shape
    assert D <= 256
    assert sorted(pi0.ravel().tolist()) == list(range(D))
    W = np.zeros((D, N * m))
    W[pi0.ravel(), np.arange(N * m)] = 1
    for idx in all_matrix_units(G.sig):
        i, j = (np.ravel_multi_index(np.subtract(k, 1), G.sig.dims)
                for k in (idx.rows, idx.cols))
        E = np.zeros((N, N))
        E[i, j] = 1
        want = W @ np.kron(E, np.eye(m)) @ W.T
        assert np.array_equal(G.rep(matrix_unit(G.sig, *idx)), want)


@pytest.mark.parametrize("dims, factors", [
    # three factors at level 2: no number of operands gives three
    ((2, 2), [T_PURE, R_PURE, T_PURE]),
    # a (3,) factor on a dimension-2 slot
    ((2,), [DensityFactor.diagonal([1.0, 0.0, 0.0])]),
    # two operands' (2,) factors on a (3,) slot: 2 x 2 is not 3
    ((3,), [T_PURE, R_PURE]),
    # a frame in place of its factor
    ((2,), [T_PURE._frame()]),
    ((2,), []),
    # refused before anything of 2^40 entries is made
    ((2**40,), [T_PURE]),
], ids=["three-at-level-two", "non-square", "two-operands-on-dim-3",
        "raw-frame", "no-factors", "huge-slot"])
def test_triplet_that_is_no_representation_is_refused(dims, factors):
    # factors that do not tile the signature are refused, in little memory
    sig = Signature(dims)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=(
                r"^factors do not tile the signature \(.*\) "
                rf"\({len(factors)} given\): each slot")):
            GnsTriplet(sig, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_huge_frame_table_entry_is_refused_in_little_memory():
    # 40 rank-1 (2,) factors tile (2,)*40, so the table's entries would run
    # to D - 1 = 2**40 - 1; the guard refuses D before any entry is made
    factors = [T_PURE] * 40
    T_PURE._frame()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=(
                f"^GNS space dimension {2**40} exceeds guard 4096$")):
            GnsTriplet(Signature((2,) * 40), factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_commutant_memory_stays_below_unit_multi_indices():
    # pure (2,)*10 has N = D = 1024 rows of 1024 units each, and the
    # commutant reads none of their images
    G = gns_build(ProductStateTrunc([DensityFactor.diagonal([1.0, 0.0])] * 10))
    tracemalloc.start()
    try:
        m2 = commutant_dimension(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m2 == 1
    assert peak < 3e6


def _python_calls(fn) -> int:
    # the Python-level function calls made while fn runs, fn's own included
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_unit_paths_make_a_bounded_number_of_python_calls():
    # one gather of frame rows is a fixed few numpy calls: 9 calls for one
    # unit's expectation (4 of them making the unit, 1 its np.errstate);
    # the commutant of a (2,3)(2,2) composition reads its frame table's
    # shape in 2 calls and their intertwiner, which builds no triplet,
    # makes 64 more, nearly all in the fused state and the reads of its
    # factors' kept frames
    S = random_state((2, 2), seed=88)
    G = gns_build(S)
    A, B = random_state((2, 3), seed=89), random_state((2, 2), seed=90)
    Gc = gns_tensor_phi(gns_build(A), gns_build(B))

    def one():
        G.expectation(matrix_unit(S.sig, (1, 2), (2, 1)))

    def frame():
        commutant_dimension(Gc)
        gns_intertwiner(A, B)

    one(), frame()  # anything made on first use is made
    assert _python_calls(one) <= 10
    assert _python_calls(frame) <= 69


def test_commutant_calls_do_not_grow_with_the_space_dimension():
    # pure (2,)*12 has N = D = 4096; reading its N^2 unit images would take
    # 12342 calls against 66 for pure (2,)
    triplets = [gns_build(ProductStateTrunc([T_PURE] * k)) for k in (1, 12)]
    for G in triplets:
        assert commutant_dimension(G) == 1
    small, large = (_python_calls(lambda G=G: commutant_dimension(G))
                    for G in triplets)
    assert large == small <= 4


def test_commutant_maximally_mixed_3x3():
    # D = 81 and N^2 = 81 units, each image rep(E_ij) = W (E_ij (x) I_9) W^T
    S = ProductStateTrunc([DensityFactor.maximally_mixed(3)] * 2)
    assert commutant_dimension(gns_build(S)) == 81

