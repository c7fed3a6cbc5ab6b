"""Property suites: the tagged sweep of the unit grid against a per-unit
reference, at the default chunk size and at chunks of 7, negative controls
that corrupt one chunk, the unit-count guard and the tolerance contract of
``run_suite``.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from uhfkron import algebra, atoms, checks, states, sweeps
from uhfkron.algebra import (
    COMPARE_TOL,
    AlgebraElement,
    Signature,
    coproduct_phi,
    matrix_unit,
)
from uhfkron.atoms import AtomLabel, atom_state
from uhfkron.checks import (
    SUITES,
    CheckReport,
    run_suite,
    suite_atom_semigroup,
    suite_coassociativity,
    suite_compatibility,
    suite_star_isomorphism,
    suite_state_associativity,
    suite_tensor_formula,
)
from uhfkron.errors import ResourceGuardError, SignatureError, ValidationError
from uhfkron.states import (
    DensityFactor,
    state_boxtimes,
    state_evaluate,
    state_tensor_phi_eval,
)
from uhfkron.sweeps import (
    _tagged_units,
    _unit_tags,
    all_matrix_units,
    coproduct_phi_block,
    embed_psi,
    insert_identity_slot,
    random_state,
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
    left = state_boxtimes(state_boxtimes(S, R), Q)
    right = state_boxtimes(S, state_boxtimes(R, Q))
    fused = a.product(b).product(c)
    report = CheckReport("state-associativity")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        lhs = state_evaluate(left, x)
        rhs = state_evaluate(right, x)
        report.record(abs(lhs - rhs) <= tol,
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
        monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", request.param)
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


def test_tagged_units_for_several_images_per_unit():
    # 4096 // 6 = 682 units per chunk: 1296 units make two chunks
    sig = (2, 3, 2, 3)
    chunks = list(_tagged_units(sig, 6))
    assert [len(x) for x in chunks] == [682, 614]
    assert [idx for x in chunks for idx in x.terms] == list(
        all_matrix_units(sig))
    for x in chunks:
        assert x.coeff.tolist() == list(range(1, len(x) + 1))


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
    monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", 7)
    got = suite(dims, level, 3, tol)
    want = reference(dims, level, 3, tol)
    assert (got.passed, got.failed, got.failures) == (
        want.passed, want.failed, want.failures)


def test_atom_check_at_chunks_of_seven(monkeypatch):
    monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", 7)
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
        return type(y)(y.sig, terms)

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
        return type(y)(y.sig, {k: v for k, v in y.terms.items() if k != idx})

    monkeypatch.setattr(checks, "insert_identity_slot", lossy)
    report = suite_compatibility((2, 2), 1)
    assert report.failed == 1
    assert report.failures == ["sides differ on unit (1,)<-(1,)"]


def test_sides_over_different_levels_fail_every_unit(monkeypatch):
    # the right side skips its block split, so it comes back over level 2
    # instead of 3 with one image per unit: no unit may pass, and the
    # slot rows of the two sides must not be keyed together
    level = 1
    real = coproduct_phi_block

    def unsplit(x, start, count, a, b):
        return x if start == level else real(x, start, count, a, b)

    monkeypatch.setattr(checks, "coproduct_phi_block", unsplit)
    report = suite_coassociativity((2, 3, 2), level)
    assert (report.passed, report.failed) == (0, 144)
    fused = checks._constant_sig(12, level)
    assert report.failures == [
        f"paths differ on unit {_name(idx)}"
        for idx in itertools.islice(all_matrix_units(fused), 20)]


def test_atom_check_corrupted_label_names_a_unit(monkeypatch):
    # with check (1) blinded, the tagged sweep of check (2) must still catch a
    # corrupted product label, at the first unit (in unit order) it breaks
    J, K = AtomLabel(2, (1, 2)), AtomLabel(2, (2, 1))
    corrupted = AtomLabel(4, (2, 4))
    level = 2
    S_expected = atom_state(corrupted, level)
    monkeypatch.setattr("uhfkron.atoms.state_boxtimes",
                        lambda S, R: S_expected)
    result = atoms._check_pairs([(J, K, corrupted)], level)[0]
    assert not result

    SJ, SK = atom_state(J, level), atom_state(K, level)
    first_bad = next(
        idx for idx in all_matrix_units(S_expected.sig)
        if state_tensor_phi_eval(SJ, SK, matrix_unit(S_expected.sig, *idx))
        != state_evaluate(S_expected, matrix_unit(S_expected.sig, *idx)))
    assert result.diagnostic == (
        f"coproduct evaluation differs on unit {_name(first_bad)}")


def test_moved_image_fails_its_unit_on_a_two_run_stage():
    # index keys over (2**40, 2**40) take two runs, the first one ranked
    # to join them; both sides are ranked together, so the image moved to
    # a first-slot value that only the right side has (ranked alone, it
    # would take the old value's rank) fails its unit, and only that one
    sig = Signature((2**40, 2**40))
    units = [((1, 1), (1, 2**40)), ((1, 2), (2, 2**40)),
             ((2**40, 3), (3, 2**39)), ((7, 2**40), (2**40, 1))]
    x = AlgebraElement(sig, {u: k + 1 for k, u in enumerate(units)})
    moved = dict(x.terms)
    moved[(2**40, 3), (4, 2**39)] = moved.pop(((2**40, 3), (3, 2**39)))
    rhs = AlgebraElement(sig, reversed(moved.items()))
    report = CheckReport("coassociativity")
    checks._record_images(report, x, x, rhs, 1, "paths differ")
    assert (report.passed, report.failed) == (3, 1)
    assert report.failures == [
        f"paths differ on unit {(2**40, 3)}<-{(3, 2**39)}"]


NEGATIVE_CONTROLS = [
    test_swapped_images_fail_exactly_those_units,
    test_lost_image_fails_its_unit,
    test_sides_over_different_levels_fail_every_unit,
    test_atom_check_corrupted_label_names_a_unit,
]


@pytest.mark.parametrize("control", NEGATIVE_CONTROLS)
def test_negative_controls_at_chunks_of_seven(monkeypatch, control):
    # the same failures, attributed to the same units, across chunk
    # boundaries (compatibility gets one unit per chunk)
    monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", 7)
    control(monkeypatch)


# ---------------------------------------------------------------------------
# the two routes of _record_images: a chunk whose sides are one term list is
# decided by its tag counts, any other chunk is keyed
# ---------------------------------------------------------------------------

def _reversed(y):
    # y's terms in reverse order, as views of its arrays: nothing is copied
    return algebra._element(y.sig, y.rows[::-1], y.cols[::-1], y.coeff[::-1])


def _keyed(real):
    # _record_images with every chunk's right side reversed, so that no
    # chunk's sides are one term list and every chunk is keyed
    def record(report, x, lhs, rhs, count, what):
        real(report, x, lhs, _reversed(rhs), count, what)
    return record


def _reports(run, keyed: bool) -> list:
    """``(passed, failed, failures)`` of each report that ``run(mp)`` fills
    through ``_record_images``, on the keyed route if ``keyed``; what
    ``run`` patches on ``mp`` is undone when it returns."""
    reports = {}
    real = checks._record_images
    route = _keyed(real) if keyed else real

    def record(report, *args):
        reports[id(report)] = report
        route(report, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_record_images", record)
        run(mp)
    return [(r.passed, r.failed, r.failures) for r in reports.values()]


def _keyings(monkeypatch) -> list:
    # a list that gets one entry per chunk keyed by _record_images
    real = checks._pair_keys
    calls = []

    def pair_keys(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(checks, "_pair_keys", pair_keys)
    return calls


@pytest.mark.parametrize("suite,dims,level", [
    (suite_coassociativity, (2, 3, 2), 1),
    (suite_coassociativity, (2, 2, 2), 2),
    (suite_compatibility, (2, 3), 1),
    (suite_compatibility, (3, 2), 2),
])
def test_both_routes_give_one_report(monkeypatch, suite, dims, level):
    keyings = _keyings(monkeypatch)
    as_made = _reports(lambda mp: suite(dims, level), keyed=False)
    assert keyings == []  # every chunk's sides were one term list
    keyed = _reports(lambda mp: suite(dims, level), keyed=True)
    assert keyings
    assert as_made == keyed
    assert as_made[0][:2] == (math.prod(dims) ** (2 * level), 0)


@pytest.mark.parametrize("control", NEGATIVE_CONTROLS)
def test_negative_controls_on_both_routes(monkeypatch, chunk, control):
    assert _reports(control, keyed=False) == _reports(control, keyed=True)


def test_shared_loss_fails_the_first_unit_of_each_chunk(monkeypatch, chunk):
    # both sides lose the image of tag 1 and stay one term list, so the tag
    # counts alone decide: exactly each chunk's unit 0 fails
    real = coproduct_phi_block

    def lossy(x, start, count, a, b):
        y = real(x, start, count, a, b)
        keep = y.coeff != 1
        return algebra._element(y.sig, y.rows[keep], y.cols[keep],
                                y.coeff[keep])

    monkeypatch.setattr(checks, "coproduct_phi_block", lossy)
    keyings = _keyings(monkeypatch)
    level = 1
    report = suite_coassociativity((2, 3, 2), level)
    units = list(all_matrix_units(checks._constant_sig(12, level)))
    firsts = units[::sweeps._TAG_CHUNK_TERMS]  # one image per unit
    assert keyings == []
    assert (report.passed, report.failed) == (
        len(units) - len(firsts), len(firsts))
    assert report.failures == [
        f"paths differ on unit {_name(idx)}" for idx in firsts[:20]]


# The tracemalloc peaks of these suites at level 2 when both sides' index
# blocks were copied into one (4T, n) array per chunk to be keyed (numpy 2.4)
CONCATENATED_KEYS_COASSOCIATIVITY_PEAK = 2.14e6
CONCATENATED_KEYS_COMPATIBILITY_PEAK = 2.07e6
EXACT_SUITE_PEAKS = [
    ("coassociativity", (2, 3, 2), CONCATENATED_KEYS_COASSOCIATIVITY_PEAK),
    ("compatibility", (2, 3), CONCATENATED_KEYS_COMPATIBILITY_PEAK),
]


def _level_two_peak(suite, dims) -> float:
    # the tracemalloc peak of a passing level-2 run of the suite
    run_suite(suite, dims, 2)  # what a first run caches is not the sweep's
    tracemalloc.start()
    try:
        report = run_suite(suite, dims, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    return peak


@pytest.mark.parametrize("suite,dims,copied_peak", EXACT_SUITE_PEAKS)
def test_exact_suites_key_images_without_copying_them(suite, dims,
                                                      copied_peak):
    # keyed from each side's own index arrays, a chunk peaked at 1.75 MB
    # (coassociativity) and 1.55 MB (compatibility)
    assert _level_two_peak(suite, dims) < 0.9 * copied_peak


@pytest.mark.parametrize("suite,dims,copied_peak", EXACT_SUITE_PEAKS)
def test_keyed_route_keys_images_without_copying_them(monkeypatch, suite,
                                                      dims, copied_peak):
    # the same bound with every chunk keyed: its right side reversed as views
    monkeypatch.setattr(checks, "_record_images",
                        _keyed(checks._record_images))
    assert _level_two_peak(suite, dims) < 0.9 * copied_peak


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
    # 17 * 241 = 4097: 4097**2 units, just past the guard
    ("star-isomorphism", (17, 241), 2),
])
def test_unit_count_guard(suite, dims, level):
    with pytest.raises(ResourceGuardError, match="guard 4096\\*\\*2"):
        run_suite(suite, dims, level)


def test_unit_count_guard_boundary():
    # 64**4 = 4096**2 units: at the guard, not above it
    algebra._guard_units("coassociativity", 64, 4)
    with pytest.raises(ResourceGuardError):
        algebra._guard_units("coassociativity", 64, 5)


def test_bad_base_fails_before_a_huge_signature():
    # (1,1,1) leaves the unit count at 1, so the signature check must
    # refuse the base before building a 10**9-slot signature
    with pytest.raises(SignatureError, match="dimension 1"):
        run_suite("coassociativity", (1, 1, 1), 10**9)


@pytest.mark.parametrize("dims, base", [((0, 2), 0), ((2, 0), 0),
                                        ((-3, 2), -3), ((2, 1), 1)])
def test_atom_semigroup_rejects_a_base_below_two(dims, base):
    # a base below 2 has no labels, which must not read as a pass
    with pytest.raises(ValidationError, match=f"label base {base} is < 2"):
        suite_atom_semigroup(dims, 1)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("level", [0, -3])
def test_suites_reject_bad_level(suite, level):
    # no level checks nothing, which must not read as a pass; every suite
    # answers with the same error
    dims = {"coassociativity": (2, 3, 2), "state-associativity": (2, 2, 2),
            "nonsymmetry": ()}.get(suite, (2, 3))
    with pytest.raises(ValidationError, match=f"level {level} is < 1"):
        run_suite(suite, dims, level)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_run_suite_rejects_negative_seed(suite):
    # refused before the suite sees its dims
    with pytest.raises(ValidationError, match="seed -1 is < 0"):
        run_suite(suite, (2, 2), 1, seed=-1)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_run_suite_rejects_bad_tolerance(tol):
    with pytest.raises(ValidationError, match="tolerance"):
        run_suite("tensor-formula", (2, 2), 1, tol=tol)


@pytest.mark.parametrize("tol", [COMPARE_TOL, 1e-6])
def test_values_are_judged_at_tol(monkeypatch, tol):
    # the Kronecker-state side of tensor-formula (the chunk's own values)
    # reads unit 1 off by 0.9 tol and unit 2 by 1.1 tol: only unit 2 fails
    read = checks._chunk_values

    def shifted(table, x):
        n, values = read(table, x)
        values = values.copy()
        values[:2] += [0.9 * tol, 1.1 * tol]
        return n, values

    monkeypatch.setattr(checks, "_chunk_values", shifted)
    report = run_suite("tensor-formula", (2, 2), 1, tol=tol)
    assert (report.passed, report.failed) == (15, 1)
    (failure,) = report.failures
    assert failure.startswith(f"values differ by {1.1 * tol:.3e} on unit")


def test_run_suite_accepts_zero_tolerance():
    assert run_suite("coassociativity", (2, 2, 2), 1, tol=0.0).ok


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 2),
                                  (2, 2, 3)])
@pytest.mark.parametrize("level", [1, 2])
def test_state_associativity_holds_at_default_tol(dims, level):
    # the two bracketings' Kronecker densities round apart (by at most
    # 5.6e-17 over these runs), well within the default tolerance
    for seed in range(10):
        report = run_suite("state-associativity", dims, level, seed)
        assert (report.failed, report.passed) == (0, math.prod(dims) ** (
            2 * level))


def test_state_associativity_fails_a_skewed_bracketing(monkeypatch):
    # a product whose left operand is itself a product, as each factor of
    # (S box R) box Q is, comes out 1e-9 off in its first entry: the one
    # unit that reads that entry must fail at the default tolerance
    real = DensityFactor.boxtimes

    def skewed(f, g):
        h = real(f, g)
        if f._operands is None:
            return h
        m = h.matrix.copy()
        m[0, 0] += 1e-9
        return states._hold(m, h._operands)

    monkeypatch.setattr(DensityFactor, "boxtimes", skewed)
    report = run_suite("state-associativity", (2, 2, 2), 1)
    assert (report.passed, report.failed) == (63, 1)
    assert report.failures == [
        f"values differ by {1e-9:.3e} on unit (1,)<-(1,)"]


@pytest.mark.parametrize("call, match", [
    (lambda: run_suite("coassociativity", (2, 2, 2), 2.0),
     "level 2.0 is not an integer"),
    (lambda: run_suite("coassociativity", (2, 2, 2), "2"),
     "level '2' is not an integer"),
    (lambda: run_suite("nonsymmetry", (), 1.5),
     "level 1.5 is not an integer"),
    (lambda: run_suite("tensor-formula", (2, "a"), 1),
     "dimension 'a' at position 2 is not an integer"),
    (lambda: run_suite("atom-semigroup", (2.0, 2), 1),
     "dimension 2.0 at position 1 is not an integer"),
    (lambda: run_suite("tensor-formula", None, 1),
     "dims None is not a sequence"),
    (lambda: run_suite("tensor-formula", 4, 1), "dims 4 is not a sequence"),
    (lambda: run_suite("tensor-formula", (2, 2), 1, tol="1"),
     "tolerance '1' is not a finite number >= 0"),
    (lambda: run_suite("tensor-formula", (2, 2), 1, seed=1.5),
     "seed 1.5 is not an integer"),
    (lambda: suite_star_isomorphism((2, 2), 1, seed=-1), "seed -1 is < 0"),
    (lambda: suite_tensor_formula((2, 2), 1, seed=-5), "seed -5 is < 0"),
    (lambda: suite_tensor_formula((2, 2), 1, tol=math.nan),
     "tolerance nan is not a finite number >= 0"),
], ids=["level-float", "level-str", "nonsymmetry-level", "dims-str",
        "dims-float", "dims-none", "dims-int", "tol-str", "seed-float",
        "star-seed", "tensor-seed", "tensor-tol-nan"])
def test_suites_read_their_arguments(call, match):
    # each was a raw TypeError, a misnamed seed or a report of failures
    with pytest.raises(ValidationError, match=match):
        call()


@pytest.mark.parametrize("suite, dims", [
    ("coassociativity", (2, 2)), ("compatibility", (2, 2, 2)),
    ("atom-semigroup", (2,)), ("state-associativity", ())])
def test_suites_refuse_the_wrong_number_of_dims(suite, dims):
    with pytest.raises(ValidationError, match=re.escape(f"got {dims!r}")):
        run_suite(suite, dims, 1)


def test_suite_arguments_accept_integer_kinds():
    # ints, bools and numpy integers are integers; the tolerance is any
    # finite real >= 0
    want = run_suite("tensor-formula", (2, 2), 1, seed=3, tol=1e-12)
    got = run_suite("tensor-formula", [np.int64(2), 2], True, seed=np.int8(3),
                    tol=np.float32(1e-12))
    assert (got.passed, got.failed) == (want.passed, want.failed) == (16, 0)


@pytest.mark.parametrize("suite, dims", [
    ("coassociativity", (2, 0, 2)), ("compatibility", (2, 0)),
    ("star-isomorphism", (2, 0)), ("tensor-formula", (3, 0)),
    ("state-associativity", (2, 2, 0))])
def test_suites_read_every_base_before_a_huge_level(suite, dims):
    # a zero base leaves the unit guard nothing to count, so it must be
    # refused before any 10**30-slot signature is built
    pos = dims.index(0) + 1
    with pytest.raises(SignatureError,
                       match=f"^factor dimension 0 at position {pos} is < 2$"):
        run_suite(suite, dims, 10**30)
