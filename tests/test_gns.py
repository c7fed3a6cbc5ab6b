"""GNS data: purification per factor, expectation identities, the
intertwining unitary for the fused-vs-coproduct representations, and
commutant dimensions as irreducibility certificates.
"""

import numpy as np
import pytest

from uhfkron.algebra import (
    all_matrix_units,
    identity,
    matrix_unit,
    random_element,
    to_dense,
)
from uhfkron.errors import (
    GramMismatchError,
    ResourceGuardError,
    SignatureError,
    ValidationError,
)
from uhfkron.gns import (
    commutant_dimension,
    FactorGns,
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


def test_intertwiner_level_argument():
    S = random_state((2, 2), seed=54)
    R = random_state((2, 2), seed=55)
    U1 = gns_intertwiner(S, R, level=1)
    full = gns_intertwiner(S, R)
    assert U1.shape[0] < full.shape[0]
    with pytest.raises(SignatureError):
        gns_intertwiner(S, R, level=3)


def test_intertwiner_detects_rank_collapse():
    # a coarse eigenvalue cutoff makes the fused state lose rank relative
    # to the tensor of the separate purifications
    T = DensityFactor.diagonal([0.6, 0.4])
    S = ProductStateTrunc([T])
    with pytest.raises(GramMismatchError):
        gns_intertwiner(S, S, cutoff=0.3)


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


def test_commutant_guard():
    S = ProductStateTrunc([DensityFactor.maximally_mixed(3)] * 2)
    G = gns_build(S)  # space dim 81; 81^2 > 4096
    with pytest.raises(ResourceGuardError):
        commutant_dimension(G)
