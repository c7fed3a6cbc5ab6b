"""GNS data: purification per factor, expectation identities, the
intertwining unitary for the fused-vs-coproduct representations, and
commutant dimensions as irreducibility certificates.
"""

import math

import numpy as np
import pytest

from uhfkron.algebra import (
    AlgebraElement,
    MatrixUnitIndex,
    all_matrix_units,
    coproduct_phi,
    identity,
    matrix_unit,
    random_element,
    to_dense,
    zero,
)
from uhfkron.errors import (
    GramMismatchError,
    IndexRangeError,
    ResourceGuardError,
    SignatureError,
    ValidationError,
)
from uhfkron.gns import (
    commutant_dimension,
    FactorGns,
    GnsTriplet,
    gns_build,
    gns_intertwiner,
    gns_tensor_phi,
)
from uhfkron.states import (
    DensityFactor,
    ProductStateTrunc,
    random_density,
    random_state,
    state_boxtimes,
    state_evaluate,
)

T_PURE = DensityFactor.diagonal([1.0, 0.0])
R_PURE = DensityFactor.diagonal([0.0, 1.0])


# ---------------------------------------------------------------------------
# factor purification
# ---------------------------------------------------------------------------

def test_factor_pure_state():
    f = FactorGns(T_PURE)
    assert f.rank == 1
    assert f.space_dim == 2
    np.testing.assert_allclose(f.cyclic, [1.0, 0.0])
    # rank-1 purification is the identity representation
    np.testing.assert_allclose(
        f.rep_unit(1, 2), to_dense(matrix_unit(2, 1, 2))
    )


def test_factor_maximally_mixed():
    f = FactorGns(DensityFactor.maximally_mixed(2))
    assert f.rank == 2
    assert f.space_dim == 4
    np.testing.assert_allclose(
        np.sort(np.abs(f.cyclic)), [0.0, 0.0, 2**-0.5, 2**-0.5], atol=1e-14
    )
    assert np.vdot(f.cyclic, f.cyclic).real == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(4))
def test_factor_expectation_identity(seed):
    # <cyclic, (x (x) I) cyclic> = tr(T x) for arbitrary x
    T = random_density(3, seed=seed)
    f = FactorGns(T)
    rng = np.random.default_rng(seed + 100)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lifted = np.kron(x, np.eye(f.rank))
    lhs = complex(np.vdot(f.cyclic, lifted @ f.cyclic))
    assert lhs == pytest.approx(complex(np.trace(T.matrix @ x)), abs=1e-12)


# ---------------------------------------------------------------------------
# full triplets
# ---------------------------------------------------------------------------

def test_build_space_dims():
    mixed = ProductStateTrunc([DensityFactor.maximally_mixed(2)] * 2)
    assert gns_build(mixed).space_dim == 16
    atom = ProductStateTrunc([T_PURE, R_PURE])
    assert gns_build(atom).space_dim == 4


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, float("nan"), float("inf")])
def test_cutoff_must_be_finite_and_positive(cutoff):
    with pytest.raises(ValidationError, match="cutoff"):
        FactorGns(T_PURE, cutoff)
    with pytest.raises(ValidationError, match="cutoff"):
        gns_build(ProductStateTrunc([T_PURE]), cutoff)


def test_build_guard():
    S = ProductStateTrunc([DensityFactor.maximally_mixed(3)] * 4)
    with pytest.raises(ResourceGuardError):
        gns_build(S)  # (3*3)^4 = 6561


@pytest.mark.parametrize("dims,seed", [((2,), 0), ((2, 3), 1), ((3, 3), 2)])
def test_expectation_matches_state_on_all_units(dims, seed):
    S = random_state(dims, seed=seed)
    G = gns_build(S)
    assert np.vdot(G.cyclic, G.cyclic).real == pytest.approx(1.0, abs=1e-12)
    for idx in all_matrix_units(dims):
        x = matrix_unit(dims, *idx)
        assert G.expectation(x) == pytest.approx(
            state_evaluate(S, x), abs=1e-10
        )


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
    assert np.array_equal(out != 0, G.rep_unit(idx) == 1)
    assert np.count_nonzero(out) == 4
    assert np.all(out[out != 0] == complex("inf"))


@pytest.mark.parametrize("bad", [((3, 1), (1, 1)), ((1, 0), (1, 1)),
                                 ((1, 1), (1, 4)), ((-1, 1), (2, 2))])
def test_element_methods_range_check_unvalidated_elements(bad):
    G = gns_build(random_state((2, 3), seed=2))
    x = AlgebraElement((2, 3), {bad: 1.0, ((1, 1), (1, 1)): 2.0},
                       validate=False)
    for method in (G.rep, G.lambda_vec, G.expectation):
        with pytest.raises(IndexRangeError):
            method(x)


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


def _reference(tree, part):
    # signature and per-unit reference map of a tree for part "rep_unit" or
    # "lambda_unit": a state's unit is the Kronecker chain of its factors'
    # units; a pair's unit is split by coproduct_phi and the parts' units
    # are Kronecker-multiplied
    if isinstance(tree, ProductStateTrunc):
        factors = [FactorGns(T) for T in tree.factors]

        def unit(idx):
            out = np.ones(1, dtype=complex)
            for f, j, k in zip(factors, idx.rows, idx.cols):
                out = np.kron(out, getattr(f, part)(j, k))
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
    sig, ref_rep = _reference(tree, "rep_unit")
    _, ref_lambda = _reference(tree, "lambda_unit")
    assert G.sig == boxed.sig == sig
    for idx in all_matrix_units(sig):
        np.testing.assert_allclose(G.rep_unit(idx), ref_rep(idx), atol=1e-15)
        np.testing.assert_allclose(
            G.lambda_unit(idx), ref_lambda(idx), atol=1e-15
        )
        x = matrix_unit(sig, *idx)
        assert G.expectation(x) == pytest.approx(
            state_evaluate(boxed, x), abs=1e-10
        )


@pytest.mark.parametrize("tree", _TREES, ids=_TREE_IDS)
def test_batched_family_equals_per_unit_stack(tree):
    # one call over all units gives exactly the per-unit images, stacked
    G, _ = _compose(tree)
    units = list(all_matrix_units(G.sig))
    assert np.array_equal(
        G.lambda_units(units).T,
        np.column_stack([G.lambda_unit(u) for u in units]),
    )
    assert np.array_equal(
        G.rep_units(units), np.stack([G.rep_unit(u) for u in units])
    )


def _rep_loop(G, x):
    # rep(x) as a sum of the unit images, one term after another
    out = np.zeros((G.space_dim, G.space_dim), dtype=complex)
    for idx, coeff in x.terms.items():
        out += coeff * G.rep_unit(idx)
    return out


def _lambda_loop(G, x):
    # lambda(x) as a running sum of the unit vectors, in term order
    out = np.zeros(G.space_dim, dtype=complex)
    for idx, coeff in x.terms.items():
        out += coeff * G.lambda_unit(idx)
    return out


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
    for x in elements:
        assert G.rep(x).tobytes() == _rep_loop(G, x).tobytes()
        assert G.lambda_vec(x).tobytes() == _lambda_loop(G, x).tobytes()


def test_unit_methods_reject_bad_indices():
    G = gns_build(random_state((2,), seed=68))
    for method in (G.rep_unit, G.lambda_unit):
        for rows, cols in [((3,), (1,)), ((1,), (0,)), ((-1,), (1,)),
                           ((1.5,), (1,)), ((1,), (10**30,))]:
            with pytest.raises(IndexRangeError):
                method(MatrixUnitIndex(rows, cols))
        for rows, cols in [((1, 1), (1, 1)), ((), ()), ((1,), (1, 2))]:
            with pytest.raises(SignatureError):
                method(MatrixUnitIndex(rows, cols))
    G2 = gns_build(random_state((2, 3), seed=69))
    good = MatrixUnitIndex((2, 3), (1, 1))
    for method in (G2.rep_units, G2.lambda_units):
        with pytest.raises(IndexRangeError, match="column index 4 .* factor 2"):
            method([good, MatrixUnitIndex((1, 1), (1, 4))])
        with pytest.raises(SignatureError):
            method([good, MatrixUnitIndex((1,), (1,))])
    f = FactorGns(random_density(2, seed=70))
    for method in (f.rep_unit, f.lambda_unit):
        for j, k in [(0, 1), (1, 3), (3, 1), (2, -1), (1.5, 1)]:
            with pytest.raises(IndexRangeError):
                method(j, k)


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
        lhs = U @ G_fused.rep_unit(idx) @ U.conj().T
        np.testing.assert_allclose(lhs, G_tensor.rep_unit(idx), atol=tol)
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
    units = list(all_matrix_units(G_fused.sig))
    return (np.column_stack([G_fused.lambda_unit(u) for u in units]),
            np.column_stack([G_tensor.lambda_unit(u) for u in units]))


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


def test_intertwiner_family_guard():
    # pure level-5 states: D = 4^5 passes the space guard, but each family
    # would hold 16^5 units x D entries
    S = ProductStateTrunc([T_PURE] * 5)
    with pytest.raises(ResourceGuardError, match="spanning families"):
        gns_intertwiner(S, S)


def test_intertwiner_detects_rank_collapse():
    # an eigenvalue just above the cutoff: its square falls below it, so
    # the fused state loses rank relative to the tensor of the separate
    # purifications (3 x 4 = 12 against (2 x 2)^2 = 16)
    T = DensityFactor.diagonal([1 - 2e-12, 2e-12])
    S = ProductStateTrunc([T])
    with pytest.raises(GramMismatchError,
                       match="GNS space dimensions differ: 12 vs 16"):
        gns_intertwiner(S, S)


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
    stack = np.vstack([
        np.kron(G.rep_unit(u), eye) - np.kron(eye, G.rep_unit(u).T)
        for u in all_matrix_units(G.sig)
    ])
    sv = np.linalg.svd(stack, compute_uv=False)
    assert commutant_dimension(G) == D * D - int(np.sum(sv > 1e-8))


@pytest.mark.parametrize("S", [
    random_state((2, 3), seed=77),
    random_state((2, 2, 2), seed=78),
    ProductStateTrunc([DensityFactor.diagonal([1.0, 0.0, 0.0, 0.0])] * 3),
], ids=["full-rank-2x3", "full-rank-2x2x2", "pure-4x4x4"])
def test_commutant_beyond_the_stacked_reference(S):
    # the stacked system has N^2 D^4 entries (up to 2^36 here), too many
    # to solve; a unital rep x |-> x (x) I_m has commutant dimension m^2
    # with m = prod_i rank_i
    G = gns_build(S)
    ranks = [FactorGns(f).rank for f in S.factors]
    assert commutant_dimension(G) == math.prod(r * r for r in ranks)


@pytest.mark.parametrize("swapped, match", [
    (((2,), (2,)), r"row \(1,\)"),
    (((2,), (1,)), "not unitary"),
], ids=["E12-E22", "E12-E21"])
def test_commutant_refuses_a_non_representation(monkeypatch, swapped,
                                                match):
    # swapping the images of E_{12} and E_{22} keeps W but breaks
    # rep(E_12) = W_1 W_2^H; swapping E_{12} and E_{21} puts a unit of
    # the first row into W, which is then not unitary; no dimension may
    # come back in either case
    G = gns_build(random_state((2,), seed=79))
    e12, other = MatrixUnitIndex((1,), (2,)), MatrixUnitIndex(*swapped)
    swap = {e12: other, other: e12}
    rep_units = GnsTriplet.rep_units
    monkeypatch.setattr(
        GnsTriplet, "rep_units",
        lambda self, units: rep_units(self, [swap.get(u, u) for u in units]),
    )
    with pytest.raises(ValidationError, match=match):
        commutant_dimension(G)


def test_commutant_refuses_a_non_square_frame(monkeypatch):
    # rep(E_11) = I has rank D, so [W_1 W_2] is D x 2D and cannot be
    # unitary; the refusal names the frame's shape rather than a row
    G = gns_build(random_state((2,), seed=80))
    e11 = MatrixUnitIndex((1,), (1,))
    rep_units = GnsTriplet.rep_units

    def patched(self, units):
        out = rep_units(self, units)
        out[[u == e11 for u in units]] = np.eye(self.space_dim)
        return out

    monkeypatch.setattr(GnsTriplet, "rep_units", patched)
    with pytest.raises(ValidationError, match="4 x 8 and not unitary"):
        commutant_dimension(G)


def test_commutant_guard():
    S = ProductStateTrunc([DensityFactor.maximally_mixed(3)] * 2)
    G = gns_build(S)  # space dim 81; 81^2 > 4096
    with pytest.raises(ResourceGuardError):
        commutant_dimension(G)
