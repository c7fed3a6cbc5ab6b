"""Atom labels, their pure product states, and the semigroup law."""

import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from uhfkron import algebra, atoms, checks, states, sweeps
from uhfkron.algebra import matrix_unit
from uhfkron.atoms import (
    AtomLabel,
    _check_pairs,
    atom_check_product,
    atom_label_product,
    atom_state,
)
from uhfkron.checks import CheckReport, run_suite, suite_atom_semigroup
from uhfkron.errors import IndexRangeError, ResourceGuardError, ValidationError
from uhfkron.gns import commutant_dimension, gns_build
from uhfkron.states import state_boxtimes, state_evaluate, state_tensor_phi_eval
from uhfkron.sweeps import all_matrix_units

SRC = Path(__file__).resolve().parents[1] / "src"


def test_label_validation():
    AtomLabel(2, (1, 2, 1))
    AtomLabel(3, (2,), tail_constant=3)
    with pytest.raises(ValidationError):
        AtomLabel(1, (1,))
    with pytest.raises(ValidationError):
        AtomLabel(2, ())
    with pytest.raises(ValidationError):
        AtomLabel(2, (1, 3))
    with pytest.raises(ValidationError):
        AtomLabel(2, (1,), tail_constant=5)


@pytest.mark.parametrize("args, match", [
    ((2, (1.7, 2)), "label entry 1.7 at position 1 is not an integer"),
    ((2, (1, "2")), "label entry '2' at position 2 is not an integer"),
    ((2.5, (1,)), "label base 2.5 is not an integer"),
    ((2, (1,), 1.5), "tail constant 1.5 is not an integer"),
    ((2, 1), "label prefix 1 is not a sequence"),
])
def test_label_refuses_non_integers(args, match):
    with pytest.raises(ValidationError, match=match):
        AtomLabel(*args)


def test_atom_state_refuses_a_non_integer_level():
    J = AtomLabel(2, (1,), tail_constant=2)
    with pytest.raises(IndexRangeError, match="level 2.0 is not an integer"):
        atom_state(J, 2.0)
    assert atom_state(J, np.int64(2)).sig.dims == (2, 2)


@pytest.mark.parametrize("call, match", [
    (lambda J: J.entry(2.5), "label position 2.5 is not an integer"),
    (lambda J: J.entry(1.0), "label position 1.0 is not an integer"),
    (lambda J: J.entries(2.0), "label level 2.0 is not an integer"),
    (lambda J: J.entries("3"), "label level '3' is not an integer"),
], ids=["entry-2.5", "entry-1.0", "entries-2.0", "entries-str"])
def test_label_positions_are_integers(call, match):
    # a float position once picked a letter (entry(2.5) gave entry 1's)
    with pytest.raises(IndexRangeError, match=match):
        call(AtomLabel(2, (1, 2), 1))


def test_label_reads_numpy_integers():
    J = AtomLabel(np.int64(3), (np.int32(2), np.uint8(3)), np.int64(1))
    assert J == AtomLabel(3, (2, 3), tail_constant=1)
    assert J.entries(4) == (2, 3, 1, 1)
    assert J.entries(np.int64(2)) == (2, 3) and J.entry(np.int8(3)) == 1
    assert all(type(j) is int for j in (J.base, *J.prefix, J.tail_constant))


def test_label_entries_and_tail():
    J = AtomLabel(2, (1, 2), tail_constant=1)
    assert J.entries(5) == (1, 2, 1, 1, 1)
    K = AtomLabel(2, (1, 2))
    assert K.entries(2) == (1, 2)
    with pytest.raises(IndexRangeError):
        K.entries(3)
    with pytest.raises(IndexRangeError):
        K.entry(0)


def test_atom_state_frozen_example():
    S = atom_state(AtomLabel(2, (1, 2)), 2)
    np.testing.assert_array_equal(S.factors[0].matrix, np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(S.factors[1].matrix, np.diag([0.0, 1.0]))


def test_atom_state_factors_are_pure():
    S = atom_state(AtomLabel(3, (2, 3, 1)), 3)
    for f in S.factors:
        assert np.trace(f.matrix) == 1.0
        assert np.linalg.matrix_rank(f.matrix) == 1


def test_atom_state_level_errors():
    J = AtomLabel(2, (1,))
    with pytest.raises(IndexRangeError):
        atom_state(J, 2)
    with pytest.raises(IndexRangeError):
        atom_state(J, 0)


GUARD_CHILD = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from uhfkron.algebra import DENSE_DIM_GUARD
from uhfkron.atoms import AtomLabel, atom_state
J = AtomLabel(2, (1,), tail_constant=2)
for call in (lambda: atom_state(J, 10**30), lambda: J.entries(10**30),
             lambda: atom_state(J, DENSE_DIM_GUARD + 1)):
    t0 = time.perf_counter()
    try:
        call()
        print("returned")
    except Exception as exc:
        print(type(exc).__name__, time.perf_counter() - t0, exc)
"""


def test_atom_state_refuses_a_level_past_the_guard():
    # without the guard a tailed label builds letters and factors until
    # memory runs out, so the huge levels run in a capped child process
    proc = subprocess.run(
        [sys.executable, "-c", GUARD_CHILD], capture_output=True, text=True,
        timeout=30, env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                             PYTHONPATH=str(SRC)))
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0 and len(lines) == 3, proc.stderr
    for line in lines:
        name, seconds, message = line.split(" ", 2)
        assert name == "ResourceGuardError"
        assert float(seconds) < 1.0
        assert message.startswith("label level ")
        assert message.endswith(" exceeds guard 4096")


def test_atom_state_at_the_guard_level():
    J = AtomLabel(2, (1,), tail_constant=2)
    S = atom_state(J, algebra.DENSE_DIM_GUARD)
    assert S.sig.dims == (2,) * algebra.DENSE_DIM_GUARD
    assert len(J.entries(algebra.DENSE_DIM_GUARD)) == algebra.DENSE_DIM_GUARD
    assert len({id(f) for f in S.factors}) == 2


def test_atom_gns_is_irreducible():
    G = gns_build(atom_state(AtomLabel(2, (1, 2, 2)), 3))
    assert commutant_dimension(G) == 1


# ---------------------------------------------------------------------------
# the label product
# ---------------------------------------------------------------------------

def test_label_product_frozen_values():
    out = atom_label_product(AtomLabel(2, (1, 1, 1)), AtomLabel(2, (2, 2, 2)))
    assert out.base == 4
    assert out.prefix == (2, 2, 2)

    out = atom_label_product(AtomLabel(2, (2,)), AtomLabel(3, (1,)))
    assert out.base == 6
    assert out.prefix == (4,)


def test_label_product_range_exhaustive():
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        for j in range(1, n + 1):
            for k in range(1, m + 1):
                out = atom_label_product(AtomLabel(n, (j,)), AtomLabel(m, (k,)))
                assert 1 <= out.prefix[0] <= n * m
    # the product map (j,k) -> m(j-1)+k is a bijection onto 1..nm
    n, m = 3, 2
    images = {
        atom_label_product(AtomLabel(n, (j,)), AtomLabel(m, (k,))).prefix[0]
        for j in range(1, n + 1)
        for k in range(1, m + 1)
    }
    assert images == set(range(1, n * m + 1))


def test_label_product_tails_and_length_mismatch():
    J = AtomLabel(2, (1, 2), tail_constant=1)
    K = AtomLabel(2, (2,), tail_constant=2)
    out = atom_label_product(J, K)
    assert out.prefix == (2, 4)
    assert out.tail_constant == 2 * (1 - 1) + 2
    with pytest.raises(ValidationError):
        atom_label_product(AtomLabel(2, (1, 2)), AtomLabel(2, (1,)))


def test_label_product_associative():
    rng = np.random.default_rng(0)
    for _ in range(10):
        J = AtomLabel(2, tuple(rng.integers(1, 3, size=4)))
        K = AtomLabel(3, tuple(rng.integers(1, 4, size=4)))
        L = AtomLabel(2, tuple(rng.integers(1, 3, size=4)))
        left = atom_label_product(atom_label_product(J, K), L)
        right = atom_label_product(J, atom_label_product(K, L))
        assert left.base == right.base == 12
        assert left.prefix == right.prefix


def test_label_product_not_commutative():
    J = AtomLabel(2, (1, 1, 1))
    K = AtomLabel(2, (2, 2, 2))
    assert atom_label_product(J, K).prefix != atom_label_product(K, J).prefix


def test_boxtimes_equals_product_label_state_exactly():
    # structural identity on the density data: exact 0/1 equality
    J = AtomLabel(2, (1, 2, 2))
    K = AtomLabel(3, (3, 1, 2))
    boxed = state_boxtimes(atom_state(J, 3), atom_state(K, 3))
    expected = atom_state(atom_label_product(J, K), 3)
    for f, g in zip(boxed.factors, expected.factors):
        assert np.array_equal(f.matrix, g.matrix)


# ---------------------------------------------------------------------------
# the full check
# ---------------------------------------------------------------------------

def test_check_product_worked_instance():
    result = atom_check_product(AtomLabel(2, (1, 1)), AtomLabel(2, (2, 2)), 2)
    assert result
    assert result.diagnostic is None


def test_check_product_random_labels():
    rng = np.random.default_rng(1)
    J = AtomLabel(2, tuple(rng.integers(1, 3, size=3)))
    K = AtomLabel(3, tuple(rng.integers(1, 4, size=3)))
    assert atom_check_product(J, K, 3)


def test_check_product_corrupted_label():
    J = AtomLabel(2, (1, 1))
    K = AtomLabel(2, (2, 2))
    good = atom_label_product(J, K)
    corrupted = AtomLabel(good.base, (good.prefix[0], 3))
    result = _check_pairs([(J, K, corrupted)], 2)[0]
    assert not result
    assert "position 2" in result.diagnostic


def test_check_product_exhaustive_base2_level2():
    for jp in itertools.product((1, 2), repeat=2):
        for kp in itertools.product((1, 2), repeat=2):
            assert atom_check_product(AtomLabel(2, jp), AtomLabel(2, kp), 2)


def test_check_product_refuses_a_huge_level_at_once():
    # check (2) would sweep 36**level units: refused before any of the
    # 10**6-factor states is built
    J, K = AtomLabel(2, (1,), 1), AtomLabel(3, (2,), 2)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError,
                       match="atom_check_product at level 1000000 would "
                             "check more than 16777216 units"):
        atom_check_product(J, K, 10**6)
    assert time.perf_counter() - start < 1
    # 36**4 units are within the guard, 36**5 are not
    with pytest.raises(ResourceGuardError, match="at level 5"):
        atom_check_product(J, K, 5)


# ---------------------------------------------------------------------------
# one batch for all the pairs of a call
# ---------------------------------------------------------------------------

def _pairs(n, m, level):
    return [(J, K, atom_label_product(J, K))
            for J in checks._labels(n, level) for K in checks._labels(m, level)]


def _outcomes(results):
    return [(bool(r), r.diagnostic) for r in results]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("level", [1, 2])
def test_suite_batch_equals_one_pair_at_a_time(dims, level):
    report = suite_atom_semigroup(dims, level)
    want = CheckReport("atom-semigroup")
    for J, K, expected in _pairs(*dims, level):
        [result] = _check_pairs([(J, K, expected)], level)
        want.record(bool(result),
                    f"J={J.prefix} K={K.prefix}: {result.diagnostic}")
    assert (report.passed, report.failed, report.failures) == (
        want.passed, want.failed, want.failures)


def test_failing_pairs_fail_alone_in_a_batch():
    # a corrupted product label and one over another base fail their own
    # pairs only, each with the diagnostic it gets alone
    level = 2
    pairs = _pairs(2, 3, level)[:8]
    J, K, good = pairs[3]
    pairs[3] = (J, K, AtomLabel(6, (good.prefix[0], good.prefix[1] % 6 + 1)))
    pairs[5] = (*pairs[5][:2], AtomLabel(5, (1, 2)))
    results = _check_pairs(pairs, level)
    assert _outcomes(results) == [
        _outcomes(_check_pairs([pair], level))[0] for pair in pairs]
    assert [p for p, r in enumerate(results) if not r] == [3, 5]
    assert results[3].diagnostic == (
        "boxtimes factor differs from product label at position 2")
    assert results[5].diagnostic == "signature mismatch: (6, 6) vs (5, 5)"


@pytest.mark.parametrize("chunk_terms", [7, 1 << 12])
def test_unit_sweep_fails_a_corrupted_pair_alone(monkeypatch, chunk_terms):
    # with check (1) blinded, the shared unit sweep must fail the corrupted
    # pair only, at the first unit (in unit order) where it breaks
    monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", chunk_terms)
    monkeypatch.setattr(atoms, "_factor_check",
                        lambda boxed, S: atoms.AtomProductCheck(True))
    level = 2
    pairs = _pairs(2, 2, level)
    J, K, _ = pairs[6]
    corrupted = AtomLabel(4, (2, 4))
    pairs[6] = (J, K, corrupted)
    results = _check_pairs(pairs, level)
    assert [p for p, r in enumerate(results) if not r] == [6]
    SJ, SK, S = (atom_state(L, level) for L in (J, K, corrupted))
    first_bad = next(
        idx for idx in all_matrix_units(S.sig)
        if state_tensor_phi_eval(SJ, SK, matrix_unit(S.sig, *idx))
        != state_evaluate(S, matrix_unit(S.sig, *idx)))
    assert results[6].diagnostic == (
        f"coproduct evaluation differs on unit "
        f"{tuple(first_bad.rows)}<-{tuple(first_bad.cols)}")
    assert results[6].diagnostic == _check_pairs([pairs[6]], level)[0].diagnostic


@pytest.mark.parametrize("chunk_terms", [7, 1 << 12])
@pytest.mark.parametrize("blind", [False, True])
def test_corrupted_pairs_of_a_batch_fail_alone(monkeypatch, chunk_terms,
                                               blind):
    # a batch builds one state per label: pairs 30 and 33 share one
    # corrupted label, which is also pair 35's true product label, and pair
    # 10 has its own.  Exactly those three pairs fail, each as it fails
    # alone: by check (1), or with check (1) blinded at the first unit
    # where the shared unit sweep breaks
    monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", chunk_terms)
    if blind:
        monkeypatch.setattr(atoms, "_factor_check",
                            lambda boxed, S: atoms.AtomProductCheck(True))
    level = 2
    pairs = _pairs(2, 3, level)
    shared = pairs[35][2]
    assert shared == AtomLabel(6, (6, 6))
    for p, corrupted in [(10, AtomLabel(6, (1, 1))), (30, shared),
                         (33, shared)]:
        J, K, _ = pairs[p]
        pairs[p] = (J, K, corrupted)
    results = _check_pairs(pairs, level)
    assert [p for p, r in enumerate(results) if not r] == [10, 30, 33]
    for p in (10, 30, 33):
        alone = _check_pairs([pairs[p]], level)[0]
        assert results[p].diagnostic == alone.diagnostic
        assert results[p].diagnostic.startswith(
            "coproduct evaluation differs on unit " if blind
            else "boxtimes factor differs")


@pytest.mark.parametrize("chunk_terms", [7, 1 << 12])
def test_lossy_coproduct_fails_every_pair_at_its_unit(monkeypatch,
                                                      chunk_terms):
    monkeypatch.setattr(sweeps, "_TAG_CHUNK_TERMS", chunk_terms)
    real = atoms.coproduct_phi
    lost = ((1, 2), (6, 1))

    def lossy(x, a, b):
        # drop the image of the unit ``lost`` (its tag, if in this chunk)
        y = real(x, a, b)
        tag = x.terms.get(lost)
        return type(y)(y.sig, {i: c for i, c in y.terms.items() if c != tag})

    monkeypatch.setattr(atoms, "coproduct_phi", lossy)
    report = suite_atom_semigroup((2, 3), 2)
    assert (report.passed, report.failed) == (0, 36)
    assert len(report.failures) == 20
    assert all(f.endswith(": coproduct evaluation differs on unit "
                          "(1, 2)<-(6, 1)") for f in report.failures)


def test_suite_validates_one_factor_per_letter(monkeypatch):
    # one shared one-hot factor per (base, letter): 2 + 3 + 6; the
    # factors state_boxtimes makes per pair are not validated again
    calls = []
    real = states.density_validate

    def counting(matrix):
        calls.append(matrix.shape)
        return real(matrix)

    monkeypatch.setattr(states, "density_validate", counting)
    report = suite_atom_semigroup((2, 3), 2)
    assert report.passed == 36
    assert len(calls) == 2 + 3 + 6


@pytest.mark.parametrize("dims, level", [((2, 3), 2), ((2, 2), 3)])
def test_suite_memory_stays_chunk_bounded(dims, level):
    # each chunk gathers at most _TAG_CHUNK_TERMS values per slot, however
    # many pairs share it
    tracemalloc.start()
    try:
        report = run_suite("atom-semigroup", dims, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2e6


@pytest.mark.parametrize("level", [0, -3])
def test_label_entries_refuse_a_level_below_one(level):
    for J in (AtomLabel(2, (1, 2), 1), AtomLabel(3, (3, 1))):
        with pytest.raises(IndexRangeError,
                           match=f"^label level {level} is < 1$"):
            J.entries(level)
