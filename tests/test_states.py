"""Product states: evaluation convention, the boxtimes product, the
non-symmetric tensor product, densities and trace distance.

The headline identity — evaluating through the coproduct equals evaluating
the factorwise-Kronecker state — is checked exhaustively on matrix units
at small dims and on random data, with both sides computed independently.
"""

import itertools

import numpy as np
import pytest

from uhfkron.algebra import (
    all_matrix_units,
    coproduct_phi,
    coproduct_phi_block,
    embed_psi,
    identity,
    matrix_unit,
    random_element,
    to_dense,
)
from uhfkron.errors import ResourceGuardError, SignatureError, ValidationError
from uhfkron.states import (
    DensityFactor,
    ProductStateTrunc,
    density_validate,
    random_density,
    random_state,
    state_boxtimes,
    state_density_level,
    state_evaluate,
    state_tensor_phi_eval,
    state_trace_distance,
)

# the orthogonal pure witnesses used throughout
T_PURE = DensityFactor.diagonal([1.0, 0.0])
R_PURE = DensityFactor.diagonal([0.0, 1.0])


# ---------------------------------------------------------------------------
# density validation
# ---------------------------------------------------------------------------

def test_density_validation_rejects_bad_matrices():
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityFactor([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="trace"):
        DensityFactor([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="positive"):
        DensityFactor([[1.5, 0.0], [0.0, -0.5]])
    with pytest.raises(ValidationError, match="< 2"):
        DensityFactor([[1.0]])
    with pytest.raises(ValidationError, match="square"):
        density_validate(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_density_validation_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        density_validate([[bad, 0.0], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="non-finite"):
        DensityFactor.diagonal([bad, bad])


def test_density_factor_is_read_only():
    f = DensityFactor.maximally_mixed(2)
    with pytest.raises(ValueError):
        f.matrix[0, 0] = 5.0
    with pytest.raises(AttributeError):
        f.dim = 3


# ---------------------------------------------------------------------------
# evaluation: frozen values, then the dense-trace oracle
# ---------------------------------------------------------------------------

def test_evaluate_frozen_values():
    S = ProductStateTrunc([T_PURE])
    assert state_evaluate(S, matrix_unit(2, 1, 1)) == 1.0
    assert state_evaluate(S, matrix_unit(2, 2, 2)) == 0.0

    S2 = ProductStateTrunc([DensityFactor([[0.5, 0.25], [0.25, 0.5]])])
    assert state_evaluate(S2, matrix_unit(2, 1, 2)) == 0.25


def test_evaluate_transpose_convention():
    # off-diagonal entries pick out T[col, row], visible once T is complex
    T = DensityFactor([[0.6, 0.2j], [-0.2j, 0.4]])
    S = ProductStateTrunc([T])
    assert state_evaluate(S, matrix_unit(2, 1, 2)) == pytest.approx(-0.2j)
    assert state_evaluate(S, matrix_unit(2, 2, 1)) == pytest.approx(0.2j)


def test_evaluate_signature_mismatch():
    S = ProductStateTrunc([T_PURE])
    with pytest.raises(SignatureError):
        state_evaluate(S, matrix_unit(3, 1, 1))


def test_evaluate_matches_dense_trace():
    S = random_state((2, 3), seed=1)
    D = state_density_level(S)
    for seed in range(5):
        x = random_element((2, 3), rng=seed, n_terms=10)
        expected = complex(np.trace(D @ to_dense(x)))
        assert state_evaluate(S, x) == pytest.approx(expected, abs=1e-12)


def _reference_evaluate(S, x):
    # the dict-era term loop: one Python complex product per slot, stopping
    # at the first zero, then a running sum
    total = 0j
    mats = [f.matrix for f in S.factors]
    for (rows, cols), coeff in x.terms.items():
        value = coeff
        for j, k, T in zip(rows, cols, mats):
            value *= T[k - 1, j - 1]
            if value == 0:
                break
        total += value
    return complex(total)


def test_evaluate_bit_identical_to_reference_loop():
    zero_heavy = ProductStateTrunc(
        [DensityFactor.diagonal([0.0, 1.0]), random_density(3, seed=4),
         DensityFactor.diagonal([0.5, 0.0, 0.5])])
    for S in (random_state((2, 3, 3), seed=3), zero_heavy):
        for seed in range(20):
            x = random_element((2, 3, 3), rng=seed, n_terms=40)
            got, want = state_evaluate(S, x), _reference_evaluate(S, x)
            assert (got.real.hex(), got.imag.hex()) == (
                want.real.hex(), want.imag.hex())


def test_evaluate_is_positive_and_unital():
    S = random_state((2, 2, 3), seed=2)
    assert state_evaluate(S, identity((2, 2, 3))) == pytest.approx(1.0)
    for seed in range(5):
        x = random_element((2, 2, 3), rng=seed, n_terms=6)
        value = state_evaluate(S, x.adjoint() * x)
        assert value.real >= -1e-10
        assert abs(value.imag) <= 1e-10


def test_evaluate_consistent_across_embedding():
    # appending any trace-1 tail factor does not change values on embedded x
    S = random_state((2, 3), seed=3)
    tail = random_density(2, seed=99)
    S_ext = ProductStateTrunc(S.factors + (tail,))
    for seed in range(5):
        x = random_element((2, 3), rng=seed, n_terms=8)
        assert state_evaluate(S_ext, embed_psi(x, 2)) == pytest.approx(
            state_evaluate(S, x), abs=1e-12
        )


# ---------------------------------------------------------------------------
# boxtimes on state data
# ---------------------------------------------------------------------------

def test_boxtimes_frozen_values():
    S = ProductStateTrunc([T_PURE])
    R = ProductStateTrunc([R_PURE])
    out = state_boxtimes(S, R)
    np.testing.assert_allclose(out.factors[0].matrix, np.diag([0, 1, 0, 0.0]))

    mixed = ProductStateTrunc([DensityFactor.maximally_mixed(2)])
    out = state_boxtimes(mixed, mixed)
    np.testing.assert_allclose(out.factors[0].matrix, np.eye(4) / 4)


def test_boxtimes_output_is_valid_state():
    S = random_state((2, 3), seed=4)
    R = random_state((3, 2), seed=5)
    out = state_boxtimes(S, R)
    assert out.sig.dims == (6, 6)
    for f in out.factors:
        assert abs(np.trace(f.matrix) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(f.matrix)[0] >= -1e-12


def test_boxtimes_level_mismatch():
    with pytest.raises(SignatureError):
        state_boxtimes(random_state((2,), seed=6), random_state((2, 2), seed=7))


# ---------------------------------------------------------------------------
# the non-symmetric tensor product
# ---------------------------------------------------------------------------

def test_tensor_phi_witness_values():
    S = ProductStateTrunc([T_PURE])
    R = ProductStateTrunc([R_PURE])
    x = matrix_unit(4, 2, 2) - matrix_unit(4, 3, 3)
    assert state_tensor_phi_eval(S, R, x) == pytest.approx(1.0)
    assert state_tensor_phi_eval(R, S, x) == pytest.approx(-1.0)
    assert state_tensor_phi_eval(S, R, identity(4)) == pytest.approx(1.0)


@pytest.mark.parametrize("dims_a,dims_b", [((2,), (3,)), ((2, 2), (3, 2))])
def test_tensor_formula_exhaustive_on_units(dims_a, dims_b):
    # (omega_S (x) omega_R) . phi == omega_{S boxtimes R} on every unit
    S = random_state(dims_a, seed=8)
    R = random_state(dims_b, seed=9)
    fused = S.sig.product(R.sig)
    boxed = state_boxtimes(S, R)
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        lhs = state_tensor_phi_eval(S, R, x)
        rhs = state_evaluate(boxed, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tensor_formula_random_level3():
    S = random_state((2, 3, 2), seed=10)
    R = random_state((3, 2, 2), seed=11)
    fused = S.sig.product(R.sig)
    boxed = state_boxtimes(S, R)
    for seed in range(10):
        x = random_element(fused, rng=seed, n_terms=12)
        assert state_tensor_phi_eval(S, R, x) == pytest.approx(
            state_evaluate(boxed, x), abs=1e-10
        )


def test_tensor_phi_state_associativity():
    # both bracketings evaluated through independent coproduct paths
    S = random_state((2, 2), seed=12)
    R = random_state((2, 2), seed=13)
    Q = random_state((2, 2), seed=14)
    triple = ProductStateTrunc(S.factors + R.factors + Q.factors)
    fused = S.sig.product(R.sig).product(Q.sig)
    n = S.level
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        left = coproduct_phi_block(
            coproduct_phi(x, S.sig.product(R.sig), Q.sig), 0, n, S.sig, R.sig
        )
        right = coproduct_phi_block(
            coproduct_phi(x, S.sig, R.sig.product(Q.sig)), n, n, R.sig, Q.sig
        )
        assert state_evaluate(triple, left) == pytest.approx(
            state_evaluate(triple, right), abs=1e-12
        )


# ---------------------------------------------------------------------------
# densities and trace distance
# ---------------------------------------------------------------------------

def test_density_frozen_and_exhaustive():
    S = ProductStateTrunc([T_PURE, T_PURE])
    np.testing.assert_allclose(state_density_level(S), np.diag([1, 0, 0, 0.0]))

    S = random_state((3, 2), seed=15)
    D = state_density_level(S)
    assert np.trace(D) == pytest.approx(1.0)
    for idx in all_matrix_units((3, 2)):
        x = matrix_unit((3, 2), *idx)
        assert complex(np.trace(D @ to_dense(x))) == pytest.approx(
            state_evaluate(S, x), abs=1e-12
        )


def test_density_guard():
    S = ProductStateTrunc([DensityFactor.maximally_mixed(2)] * 13)
    with pytest.raises(ResourceGuardError):
        state_density_level(S)


def test_trace_distance_zero_and_witness():
    S = random_state((2, 2), seed=16)
    assert state_trace_distance(S, S) == pytest.approx(0.0, abs=1e-14)

    for level in (1, 2, 3):
        ST = ProductStateTrunc([T_PURE] * level)
        SR = ProductStateTrunc([R_PURE] * level)
        d = state_trace_distance(state_boxtimes(ST, SR), state_boxtimes(SR, ST))
        assert d == pytest.approx(2.0, abs=1e-12)


def test_trace_distance_metric_properties():
    A = random_state((2, 3), seed=17)
    B = random_state((2, 3), seed=18)
    C = random_state((2, 3), seed=19)
    dAB = state_trace_distance(A, B)
    assert dAB == pytest.approx(state_trace_distance(B, A))
    assert dAB <= state_trace_distance(A, C) + state_trace_distance(C, B) + 1e-12
    with pytest.raises(SignatureError):
        state_trace_distance(A, random_state((3, 2), seed=20))


# ---------------------------------------------------------------------------
# random densities
# ---------------------------------------------------------------------------

def test_random_density_is_deterministic_and_valid():
    a = random_density(3, seed=21)
    b = random_density(3, seed=21)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, random_density(3, seed=22).matrix)
    density_validate(a.matrix)


def test_random_density_mean_near_maximally_mixed():
    mean = np.zeros((2, 2), dtype=complex)
    for seed in range(1000):
        mean += random_density(2, seed=seed).matrix
    mean /= 1000
    assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.1
