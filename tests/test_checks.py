"""Property suites: the tagged sweep of the unit grid against a per-unit
reference, at the default chunk size and at chunks of 7, negative controls
that corrupt one chunk, the unit-count guard and the tolerance contract of
``run_suite``.
"""

import math

import pytest

from uhfkron import algebra, checks
from uhfkron.algebra import (
    _tagged_units,
    _unit_tags,
    all_matrix_units,
    coproduct_phi,
    coproduct_phi_block,
    embed_psi,
    insert_identity_slot,
    matrix_unit,
)
from uhfkron.atoms import AtomLabel, atom_check_product, atom_state
from uhfkron.checks import (
    SUITES,
    CheckReport,
    run_suite,
    suite_atom_semigroup,
    suite_coassociativity,
    suite_compatibility,
    suite_state_associativity,
    suite_tensor_formula,
)
from uhfkron.errors import ResourceGuardError, SignatureError, ValidationError
from uhfkron.states import (
    ProductStateTrunc,
    random_state,
    state_boxtimes,
    state_evaluate,
    state_tensor_phi_eval,
)


def _name(idx):
    return f"{tuple(idx.rows)}<-{tuple(idx.cols)}"


# ---------------------------------------------------------------------------
# per-unit reference: one matrix_unit and one call per side for each unit
# ---------------------------------------------------------------------------

def reference_coassociativity(dims, level, seed=0, tol=1e-12):
    a, b, c = (checks._constant_sig(d, level) for d in dims)
    fused = a.product(b).product(c)
    report = CheckReport("coassociativity")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        left = coproduct_phi_block(
            coproduct_phi(x, a.product(b), c), 0, level, a, b)
        right = coproduct_phi_block(
            coproduct_phi(x, a, b.product(c)), level, level, b, c)
        report.record(left == right, f"paths differ on unit {_name(idx)}")
    return report


def reference_compatibility(dims, level, seed=0, tol=1e-12):
    a_base, b_base = dims
    a, b = (checks._constant_sig(d, level) for d in dims)
    fused = a.product(b)
    report = CheckReport("compatibility")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        lhs = coproduct_phi(embed_psi(x, a_base * b_base),
                            a.dims + (a_base,), b.dims + (b_base,))
        rhs = coproduct_phi(x, a, b)
        rhs = insert_identity_slot(rhs, level, a_base)
        rhs = insert_identity_slot(rhs, 2 * level + 1, b_base)
        report.record(lhs == rhs, f"sides differ on unit {_name(idx)}")
    return report


def reference_tensor_formula(dims, level, seed=0, tol=1e-12):
    a, b = (checks._constant_sig(d, level) for d in dims)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    boxed = state_boxtimes(S, R)
    report = CheckReport("tensor-formula")
    for idx in all_matrix_units(a.product(b)):
        x = matrix_unit(a.product(b), *idx)
        lhs = state_tensor_phi_eval(S, R, x)
        rhs = state_evaluate(boxed, x)
        report.record(abs(lhs - rhs) <= tol,
                      f"values differ by {abs(lhs - rhs):.3e} on unit "
                      f"{_name(idx)}")
    return report


def reference_state_associativity(dims, level, seed=0, tol=1e-12):
    a, b, c = (checks._constant_sig(d, level) for d in dims)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    Q = random_state(c, seed=seed + 3)
    triple = ProductStateTrunc(S.factors + R.factors + Q.factors)
    fused = a.product(b).product(c)
    report = CheckReport("state-associativity")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        left = coproduct_phi_block(
            coproduct_phi(x, a.product(b), c), 0, level, a, b)
        right = coproduct_phi_block(
            coproduct_phi(x, a, b.product(c)), level, level, b, c)
        lhs = state_evaluate(triple, left)
        rhs = state_evaluate(triple, right)
        report.record(abs(lhs - rhs) <= max(tol, 1e-10),
                      f"values differ by {abs(lhs - rhs):.3e} on unit "
                      f"{_name(idx)}")
    return report


@pytest.mark.parametrize("suite,reference,dims,level,tol", [
    (suite_coassociativity, reference_coassociativity, (2, 3, 2), 1, 1e-12),
    (suite_coassociativity, reference_coassociativity, (2, 2, 2), 2, 1e-12),
    (suite_compatibility, reference_compatibility, (2, 3), 1, 1e-12),
    (suite_compatibility, reference_compatibility, (3, 2), 2, 1e-12),
    (suite_tensor_formula, reference_tensor_formula, (2, 3), 1, 1e-12),
    (suite_tensor_formula, reference_tensor_formula, (2, 2), 2, 1e-12),
    # a zero tolerance fails the units with rounding error, so the
    # failure text (and its printed difference) is compared as well
    (suite_tensor_formula, reference_tensor_formula, (3, 3), 1, 0.0),
    (suite_tensor_formula, reference_tensor_formula, (2, 2), 2, 0.0),
    (suite_state_associativity, reference_state_associativity, (2, 3, 2), 1,
     1e-12),
    (suite_state_associativity, reference_state_associativity, (2, 2, 2), 2,
     0.0),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_row_sweep_matches_per_unit_reference(suite, reference, dims, level,
                                              tol, seed):
    # (named for the row-at-a-time sweep it first checked; the suites now
    # sweep the whole grid in tagged chunks)
    got = suite(dims, level, seed, tol)
    want = reference(dims, level, seed, tol)
    assert (got.suite, got.passed, got.failed, got.failures) == (
        want.suite, want.passed, want.failed, want.failures)
    assert got.passed + got.failed == math.prod(dims) ** (2 * level)


def test_zero_tolerance_reference_has_failures():
    # the zero-tolerance cases above compare real diagnostics
    assert reference_tensor_formula((3, 3), 1, 0, 0.0).failed > 0


@pytest.fixture(params=["default", 7])
def chunk(request, monkeypatch):
    """Image terms per tagged chunk: the default, or 7 so that every suite
    crosses many chunk boundaries (compatibility, with a*b images per
    unit, then gets one unit per chunk)."""
    if request.param != "default":
        monkeypatch.setattr(algebra, "_TAG_CHUNK_TERMS", request.param)
    return request.param


def test_tagged_units_tag_every_unit_once(chunk):
    sig = (2, 3)
    chunks = list(_tagged_units(sig))
    if chunk == 7:
        assert [len(x) for x in chunks] == [7] * 5 + [1]
    assert [idx for x in chunks for idx in x.terms] == list(
        all_matrix_units(sig))
    for x in chunks:
        assert x.coeff.tolist() == list(range(1, len(x) + 1))
        assert _unit_tags(x, len(x)).tolist() == list(range(len(x)))


def test_unit_tags_ignore_other_coefficients():
    x = next(_tagged_units((2,)))  # tags 1..4
    y = type(x)(x.sig, [(((1,), (1,)), 2.5), (((1,), (2,)), 4 + 1j),
                        (((2,), (1,)), 5.0), (((2,), (2,)), 3.0)])
    assert _unit_tags(y, 4).tolist() == [-1, -1, -1, 2]


@pytest.mark.parametrize("suite,reference,dims,level,tol", [
    (suite_coassociativity, reference_coassociativity, (2, 3, 2), 1, 1e-12),
    (suite_compatibility, reference_compatibility, (2, 3), 1, 1e-12),
    (suite_tensor_formula, reference_tensor_formula, (2, 2), 2, 0.0),
    (suite_state_associativity, reference_state_associativity, (2, 2, 2), 1,
     0.0),
])
def test_chunk_boundaries_change_nothing(monkeypatch, suite, reference, dims,
                                         level, tol):
    monkeypatch.setattr(algebra, "_TAG_CHUNK_TERMS", 7)
    got = suite(dims, level, 3, tol)
    want = reference(dims, level, 3, tol)
    assert (got.passed, got.failed, got.failures) == (
        want.passed, want.failed, want.failures)


def test_atom_check_at_chunks_of_seven(monkeypatch):
    monkeypatch.setattr(algebra, "_TAG_CHUNK_TERMS", 7)
    report = suite_atom_semigroup((2, 2), 2)
    assert (report.passed, report.failed, report.failures) == (16, 0, [])


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def test_swapped_images_fail_exactly_those_units(monkeypatch):
    level = 1
    fused = checks._constant_sig(12, level)
    units = list(all_matrix_units(fused))
    swapped = (units[1], units[4])
    real = coproduct_phi_block
    calls = []

    def corrupt(x, start, count, a, b):
        y = real(x, start, count, a, b)
        calls.append(start)
        if calls != [0]:
            return y
        # the first chunk's left side: exchange the images of tags 2 and 5
        terms = {idx: {2: 5, 5: 2}.get(c.real, c.real)
                 for idx, c in y.terms.items()}
        return type(y)(y.sig, terms, validate=False)

    monkeypatch.setattr(checks, "coproduct_phi_block", corrupt)
    report = suite_coassociativity((2, 3, 2), level)
    assert report.failed == 2
    assert report.passed == 144 - 2
    assert report.failures == [
        f"paths differ on unit {_name(idx)}" for idx in swapped]


def test_lost_image_fails_its_unit(monkeypatch):
    real = checks.insert_identity_slot
    dropped = []

    def lossy(x, position, dim):
        y = real(x, position, dim)
        if dropped:
            return y
        idx = min(y.terms)
        dropped.append(idx)
        return type(y)(y.sig, {k: v for k, v in y.terms.items() if k != idx},
                       validate=False)

    monkeypatch.setattr(checks, "insert_identity_slot", lossy)
    report = suite_compatibility((2, 2), 1)
    assert report.failed == 1
    assert report.failures == ["sides differ on unit (1,)<-(1,)"]


def test_atom_check_corrupted_label_names_a_unit(monkeypatch):
    # with check (1) blinded, the tagged sweep of check (2) must still catch a
    # corrupted product label, at the first unit (in unit order) it breaks
    J, K = AtomLabel(2, (1, 2)), AtomLabel(2, (2, 1))
    corrupted = AtomLabel(4, (2, 4))
    level = 2
    S_expected = atom_state(corrupted, level)
    monkeypatch.setattr("uhfkron.atoms.state_boxtimes",
                        lambda S, R: S_expected)
    result = atom_check_product(J, K, level, expected=corrupted)
    assert not result

    SJ, SK = atom_state(J, level), atom_state(K, level)
    first_bad = next(
        idx for idx in all_matrix_units(S_expected.sig)
        if state_tensor_phi_eval(SJ, SK, matrix_unit(S_expected.sig, *idx))
        != state_evaluate(S_expected, matrix_unit(S_expected.sig, *idx)))
    assert result.diagnostic == (
        f"coproduct evaluation differs on unit {_name(first_bad)}")


@pytest.mark.parametrize("control", [
    test_swapped_images_fail_exactly_those_units,
    test_lost_image_fails_its_unit,
    test_atom_check_corrupted_label_names_a_unit,
])
def test_negative_controls_at_chunks_of_seven(monkeypatch, control):
    # the same failures, attributed to the same units, across chunk
    # boundaries (compatibility gets one unit per chunk)
    monkeypatch.setattr(algebra, "_TAG_CHUNK_TERMS", 7)
    control(monkeypatch)


# ---------------------------------------------------------------------------
# unit-count guard and tolerance contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite,dims,level", [
    ("coassociativity", (2, 3, 2), 6),
    ("compatibility", (2, 3), 10),
    ("tensor-formula", (3, 3), 10**9),
    ("state-associativity", (2, 2, 2), 5),
    ("atom-semigroup", (2, 2), 5),
    ("star-isomorphism", (2, 2), 13),
    ("nonsymmetry", (), 7),
])
def test_unit_count_guard(suite, dims, level):
    with pytest.raises(ResourceGuardError, match="guard 4096\\*\\*2"):
        run_suite(suite, dims, level)


def test_unit_count_guard_boundary():
    # 64**4 = 4096**2 units: at the guard, not above it
    checks._guard_units("coassociativity", 64, 4)
    with pytest.raises(ResourceGuardError):
        checks._guard_units("coassociativity", 64, 5)


def test_bad_base_fails_before_a_huge_signature():
    # (1,1,1) leaves the unit count at 1, so the signature check must
    # refuse the base before building a 10**9-slot signature
    with pytest.raises(SignatureError, match="dimension 1"):
        run_suite("coassociativity", (1, 1, 1), 10**9)


def test_atom_semigroup_rejects_bad_level():
    for level in (0, -1):
        with pytest.raises(ValidationError, match="level"):
            suite_atom_semigroup((2, 2), level)


@pytest.mark.parametrize("level", [0, -3])
def test_nonsymmetry_rejects_bad_level(level):
    # no level checks nothing, which must not read as a pass
    with pytest.raises(ValidationError, match=f"level {level} is < 1"):
        run_suite("nonsymmetry", (), level)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_run_suite_rejects_negative_seed(suite):
    # refused before the suite sees its dims
    with pytest.raises(ValidationError, match="seed -1 is < 0"):
        run_suite(suite, (2, 2), 1, seed=-1)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_run_suite_rejects_bad_tolerance(tol):
    with pytest.raises(ValidationError, match="tolerance"):
        run_suite("tensor-formula", (2, 2), 1, tol=tol)


def test_run_suite_accepts_zero_tolerance():
    assert run_suite("coassociativity", (2, 2, 2), 1, tol=0.0).ok
