"""Product states: evaluation convention, the boxtimes product, the
non-symmetric tensor product, densities and trace distance.

The headline identity — evaluating through the coproduct equals evaluating
the factorwise-Kronecker state — is checked exhaustively on matrix units
at small dims and on random data, with both sides computed independently.
"""

import ast
import copy
import inspect
import itertools
import pickle

import numpy as np
import pytest

from uhfkron import sweeps
from uhfkron.algebra import (
    DENSE_DIM_GUARD,
    Signature,
    coproduct_phi,
    identity,
    matrix_unit,
)
from uhfkron.errors import ResourceGuardError, SignatureError, ValidationError
from uhfkron.states import (
    DensityFactor,
    ProductStateTrunc,
    density_validate,
    state_boxtimes,
    state_density_level,
    state_evaluate,
    state_tensor_phi_eval,
    state_trace_distance,
)
from uhfkron.sweeps import (
    _stacked_entry_table,
    _tagged_units,
    _tagged_values,
    all_matrix_units,
    coproduct_phi_block,
    embed_psi,
    from_dense,
    kron_box,
    random_density,
    random_element,
    random_state,
    to_dense,
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


@pytest.mark.parametrize("matrix, match", [
    ([[1e308, 0], [0, 1e308]], "trace differs from 1 by inf"),
    ([[0.5, 1e308], [-1e308, 0.5]], "not Hermitian \\(defect inf"),
    ([[1e308] * 2] * 2, "trace differs from 1 by inf"),
    (np.diag([1e308, -1e308] * 4), "trace differs from 1 by nan"),
])
def test_density_validation_near_the_float_limit(matrix, match):
    # finite entries whose defects overflow: a ValidationError, and no
    # RuntimeWarning (the test configuration turns one into an error)
    with pytest.raises(ValidationError, match=match):
        density_validate(matrix)


@pytest.mark.parametrize("vector, power", [
    ([1e154, 1e154], -500),
    ([1e-160, 1e-160], 500),
    ([1e-200, 0], 600),
    ([3e300j, -4e300], -900),
], ids=["norm-overflows", "norm-underflows", "norm-is-zero", "complex-huge"])
def test_pure_reads_vectors_whose_norm_leaves_float_range(vector, power):
    # the vector is scaled by a power of two before <v, v> is taken, so it
    # gives the bytes of the same vector scaled exactly into float range,
    # with no warning
    scaled = np.asarray(vector, dtype=complex) * 2.0 ** power
    assert (DensityFactor.pure(vector).matrix.tobytes()
            == DensityFactor.pure(scaled).matrix.tobytes())


def test_pure_reads_entries_of_far_apart_scales():
    # unscaled, <v, v> = 1e400 overflows; the (2, 2) entry 1e-400
    # underflows to zero
    np.testing.assert_allclose(DensityFactor.pure([1e200, 1]).matrix,
                               [[1, 1e-200], [1e-200, 0]], rtol=1e-15, atol=0)


@pytest.mark.parametrize("vector", [
    [1, 1e-170], [1e200, 1], [1e-160, 1], [1, 1e-300], [1e300, 1e-300],
    [1e-300, 1e300j],
], ids=["product-subnormal", "scaled-product-zero",
        "first-product-subnormal", "product-zero", "scaled-entry-subnormal",
        "scaled-entry-complex"])
def test_pure_underflow_raises_nothing_under_a_strict_errstate(vector):
    # after the power-of-two scaling only an underflow can occur, in the
    # scaling, the outer product or the division: the caller's errstate
    # neither raises nor warns on it, and the bytes are the default's
    want = DensityFactor.pure(vector).matrix.tobytes()
    with np.errstate(all="raise"):
        assert DensityFactor.pure(vector).matrix.tobytes() == want


@pytest.mark.parametrize("vector, match", [
    ([np.inf, 1], "^pure-state vector has a non-finite entry$"),
    ([np.nan, 1], "^pure-state vector has a non-finite entry$"),
    ([1, complex(0, np.inf)], "^pure-state vector has a non-finite entry$"),
    ([[1, 0], [0, 1]], r"^pure-state vector must have one axis, got shape "
                       r"\(2, 2\)$"),
    (1.0, r"^pure-state vector must have one axis, got shape \(\)$"),
    ([], "^pure-state vector must be nonzero$"),
    ([0, 0j], "^pure-state vector must be nonzero$"),
], ids=["inf", "nan", "inf-imag", "two-axes", "scalar", "empty", "zero"])
def test_pure_refuses_vectors_it_cannot_read(vector, match):
    # refused before any arithmetic, so with no RuntimeWarning (the test
    # configuration turns one into an error)
    with pytest.raises(ValidationError, match=match):
        DensityFactor.pure(vector)


@pytest.mark.parametrize("call, what", [
    (density_validate, "density matrix"),
    (DensityFactor, "density matrix"),
    (DensityFactor.diagonal, "diagonal values"),
    (DensityFactor.pure, "pure-state vector"),
    (lambda m: kron_box(m, np.eye(2)), "matrix A"),
    (lambda m: kron_box(np.eye(2), m), "matrix B"),
    (lambda m: from_dense(m, (2,)), "matrix"),
], ids=["density_validate", "DensityFactor", "diagonal", "pure", "kron_box-A",
        "kron_box-B", "from_dense"])
@pytest.mark.parametrize("matrix", [
    [["half", 0], [0, 0.5]],
    [[0.5, 0], [0]],
    [[10 ** 400, 0], [0, 0.5]],
], ids=["string", "ragged", "int-past-float"])
def test_matrices_that_hold_no_numbers_are_named(call, what, matrix):
    with pytest.raises(ValidationError,
                       match=f"^{what} is not an array of complex numbers$"):
        call(matrix)


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


def test_boxtimes_of_factors_at_the_trace_tolerance():
    # each factor's trace is 1 + 9e-11, within DENSITY_VALIDATE_TOL; their
    # product's is 1 + 1.8e-10, which a second check would refuse
    S = ProductStateTrunc([DensityFactor.diagonal([0.50000000009, 0.5])])
    out = state_boxtimes(S, S)
    product = out.factors[0].matrix
    np.testing.assert_array_equal(product, kron_box(S.factors[0].matrix,
                                                    S.factors[0].matrix))
    assert not product.flags.writeable
    assert out.factors[0].dim == 4


def test_boxtimes_takes_the_products_of_kron_box_bit_for_bit():
    # one broadcast multiply of the held matrices takes the products
    # numpy.kron takes, signed zeros included; kron_box stays the dense
    # oracle, so the states module does not call it
    for m, n in itertools.product(range(2, 7), repeat=2):
        a = random_density(m, seed=10 * m + n).matrix.copy()
        a[0, 0] = complex(a[0, 0].real, -0.0)
        for b in (random_density(n, seed=10 * m + n + 100).matrix,
                  np.diag([-0.0] * (n - 1) + [1.0]).astype(complex)):
            f, g = DensityFactor(a), DensityFactor(b)
            got = f.boxtimes(g).matrix
            want = kron_box(f.matrix, g.matrix)
            assert got.shape == want.shape == (m * n, m * n)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
    tree = ast.parse(inspect.getsource(inspect.getmodule(DensityFactor)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "kron_box" not in names


def _round_trips(value):
    return [copy.copy(value), copy.deepcopy(value),
            pickle.loads(pickle.dumps(value))]


def test_factors_and_states_copy_and_pickle():
    # the copy rebuilds without a second validation, so a product at the
    # trace tolerance, which DensityFactor(...) would refuse, round-trips
    f = DensityFactor.diagonal([0.50000000009, 0.5])
    g = f.boxtimes(f)
    with pytest.raises(ValidationError):
        DensityFactor(g.matrix)
    for factor in (f, g):
        for back in _round_trips(factor):
            assert type(back) is DensityFactor and back.dim == factor.dim
            np.testing.assert_array_equal(back.matrix, factor.matrix)
            assert not back.matrix.flags.writeable
    S = ProductStateTrunc([f, g])
    x = random_element(S.sig, 2, 12)
    for back in _round_trips(S):
        assert type(back) is ProductStateTrunc and back.sig == S.sig
        for mine, theirs in zip(back.factors, S.factors):
            np.testing.assert_array_equal(mine.matrix, theirs.matrix)
            assert not mine.matrix.flags.writeable
        assert state_evaluate(back, x) == state_evaluate(S, x)


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
# tagged chunks: one state's read and a stacked read of several
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk_terms", [sweeps._TAG_CHUNK_TERMS, 7])
def test_stacked_tagged_read_equals_single_reads(monkeypatch, chunk_terms):
    # the slot products start from the first slot's entries, not from a
    # coefficient, and still equal state_evaluate on each unit (==); the
    # second stage is tensor-formula's at level 2
    monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", chunk_terms)
    for dims in [((2, 2), (2, 3)), ((2, 2), (3, 3))]:
        _check_stacked_reads(*map(Signature, dims))


def _check_stacked_reads(a, b):
    fused, split = a.product(b), a.concat(b)
    # per side: the signature, how a chunk maps to that side, and how one
    # unit's image is made on its own
    sides = [(fused, lambda x: x, lambda idx: matrix_unit(fused, *idx)),
             (split, lambda x: coproduct_phi(x, a, b),
              lambda idx: coproduct_phi(matrix_unit(fused, *idx), a, b))]
    units = list(all_matrix_units(fused))
    for sig, image, unit_image in sides:
        states = [random_state(sig, seed=s) for s in (41, 42, 43)]
        stack = _stacked_entry_table([S.factors for S in states], sig)
        assert stack[0].flags.c_contiguous  # a row gather copies no more
        done = 0
        for x in _tagged_units(fused):
            y, count = image(x), len(x)
            n_stack, v_stack = _tagged_values(stack, y, count)
            assert v_stack.shape == (count, len(states))
            for p, S in enumerate(states):
                n_one, v_one = _tagged_values(S._entry_table(), y, count)
                assert n_one.tolist() == n_stack.tolist() == [1] * count
                assert v_stack[:, p].tobytes() == v_one.tobytes()
                # == leaves the sign of a zero part open, as documented
                assert v_one.tolist() == [
                    state_evaluate(S, unit_image(idx))
                    for idx in units[done:done + count]]
            done += count
        assert done == len(units)


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


@pytest.mark.parametrize("make", [
    lambda: random_density(2, seed=-1),
    lambda: random_state((2, 3), seed=-1),
    lambda: random_element((2, 3), rng=-1),
], ids=["density", "state", "element"])
def test_seeded_helpers_refuse_a_negative_seed(make):
    with pytest.raises(ValidationError,
                       match="seed -1 is not a non-negative integer"):
        make()


def test_random_element_reads_its_term_count():
    assert random_element((2, 3), rng=0, n_terms=0).is_zero
    assert (random_element(2, rng=1, n_terms=np.int64(3))
            == random_element(2, rng=1, n_terms=3))
    with pytest.raises(ValidationError, match="term count -1 is < 0"):
        random_element((2, 3), rng=0, n_terms=-1)
    with pytest.raises(ValidationError,
                       match="term count 1.5 is not an integer"):
        random_element((2, 3), rng=0, n_terms=1.5)
    # refused before a single term is drawn
    for n in (DENSE_DIM_GUARD ** 2 + 1, 10**30):
        with pytest.raises(ResourceGuardError,
                           match=f"exceeds guard {DENSE_DIM_GUARD ** 2}"):
            random_element((2, 3), rng=0, n_terms=n)


def test_random_density_mean_near_maximally_mixed():
    mean = np.zeros((2, 2), dtype=complex)
    for seed in range(1000):
        mean += random_density(2, seed=seed).matrix
    mean /= 1000
    assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.1


@pytest.mark.parametrize("call, message", [
    (lambda: random_density("3"), "density dimension '3' is not an integer"),
    (lambda: random_density(2.5), "density dimension 2.5 is not an integer"),
    (lambda: DensityFactor.maximally_mixed(2.0),
     "density dimension 2.0 is not an integer"),
    (lambda: DensityFactor.maximally_mixed(-1), "density dimension -1 is < 2"),
    (lambda: random_state(3, 1), "signature 3 is not a sequence"),
], ids=["random-density-str", "random-density-float", "mixed-float",
        "mixed-negative", "random-state-int"])
def test_density_helpers_read_their_dimensions_as_integers(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_density_helpers_take_numpy_integers():
    assert DensityFactor.maximally_mixed(np.int64(3)).dim == 3
    assert random_density(np.uint8(2), seed=1).dim == 2
    assert random_state(np.array([2, 3]), 1).sig.dims == (2, 3)


@pytest.mark.parametrize("make", [random_density, DensityFactor.maximally_mixed],
                         ids=["random", "mixed"])
@pytest.mark.parametrize("dim", [DENSE_DIM_GUARD + 1, 5000, 10**30])
def test_density_constructors_refuse_a_dimension_past_the_guard(make, dim):
    # refused before a dim x dim matrix is allocated
    with pytest.raises(ResourceGuardError,
                       match=f"^density dimension {dim} exceeds guard "
                             f"{DENSE_DIM_GUARD}$"):
        make(dim)
