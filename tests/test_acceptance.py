"""Acceptance criteria, one test per criterion.

Each test appends a PASS/FAIL line to RESULTS; a terminal-summary hook in
conftest.py prints the collected lines after the run, so the acceptance
status is visible without -s.  Budgets and tolerances are asserted inside
the tests.
"""

import time

import numpy as np
import pytest

from uhfkron.algebra import (
    all_matrix_units,
    coproduct_phi,
    elem_tensor,
    from_dense,
    kron_box,
    matrix_unit,
    random_element,
    to_dense,
)
from uhfkron.atoms import AtomLabel, atom_state
from uhfkron.checks import (
    suite_atom_semigroup,
    suite_coassociativity,
    suite_compatibility,
    suite_state_associativity,
)
from uhfkron.gns import gns_build, gns_intertwiner, gns_tensor_phi, commutant_dimension
from uhfkron.states import (
    DensityFactor,
    ProductStateTrunc,
    random_state,
    state_boxtimes,
    state_evaluate,
    state_tensor_phi_eval,
    state_trace_distance,
)

RESULTS: list[str] = []


def report(number: int, label: str, ok: bool):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {label}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_01_nonsymmetry_witness():
    start = time.time()
    S = ProductStateTrunc([DensityFactor.diagonal([1, 0])])
    R = ProductStateTrunc([DensityFactor.diagonal([0, 1])])
    w = matrix_unit(4, 2, 2) - matrix_unit(4, 3, 3)
    forward = state_tensor_phi_eval(S, R, w)
    backward = state_tensor_phi_eval(R, S, w)
    elapsed = time.time() - start
    ok = (abs(forward - 1.0) <= 1e-12 and abs(backward + 1.0) <= 1e-12
          and elapsed < 1.0)
    report(1, f"witness evaluates to {forward.real:+.0f}/{backward.real:+.0f} "
              f"({elapsed:.2f}s)", ok)


def test_criterion_02_tensor_product_formula():
    start = time.time()
    dims_a, dims_b = (2, 3, 2), (3, 2, 2)
    fused = random_state(dims_a, 0).sig.product(random_state(dims_b, 0).sig)
    worst = 0.0
    for pair in range(50):
        S = random_state(dims_a, seed=2 * pair + 1)
        R = random_state(dims_b, seed=2 * pair + 2)
        boxed = state_boxtimes(S, R)
        for j in range(200):
            x = random_element(fused, rng=pair * 1000 + j, n_terms=6)
            lhs = state_tensor_phi_eval(S, R, x)
            rhs = state_evaluate(boxed, x)
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(2, f"50 state pairs x 200 elements, max deviation {worst:.2e} "
              f"({elapsed:.1f}s)", ok)


def test_criterion_03_coassociativity():
    start = time.time()
    reports = [suite_coassociativity((2, 3, 2), level) for level in (1, 2)]
    elapsed = time.time() - start
    ok = all(r.failed == 0 for r in reports) and elapsed < 5.0
    units = " + ".join(str(r.passed) for r in reports)
    report(3, f"exhaustive on {units} units, exact ({elapsed:.1f}s)", ok)


def test_criterion_04_compatibility():
    start = time.time()
    reports = [
        suite_compatibility(dims, level)
        for dims in ((2, 2), (2, 3))
        for level in (1, 2)
    ]
    elapsed = time.time() - start
    ok = all(r.failed == 0 for r in reports) and elapsed < 5.0
    total = sum(r.passed for r in reports)
    report(4, f"exhaustive on {total} units across 4 configurations, exact "
              f"({elapsed:.1f}s)", ok)


def test_criterion_05_level1_anchor():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        split = coproduct_phi(from_dense(kron_box(A, B), 6), 2, 3)
        expected = elem_tensor(from_dense(A, 2), from_dense(B, 3))
        keys = set(split.terms) | set(expected.terms)
        worst = max(
            worst,
            max(abs(split.terms.get(k, 0) - expected.terms.get(k, 0))
                for k in keys),
        )
        worst = max(worst, float(np.max(np.abs(
            to_dense(split) - kron_box(A, B)
        ))))
    ok = worst <= 1e-12
    report(5, f"20 random pairs, split of the fused product equals the "
              f"tensor, max deviation {worst:.2e}", ok)


def test_criterion_06_gns_and_intertwiner():
    start = time.time()
    shapes = [(2,), (3,), (2, 2), (2, 3), (3, 3)]
    worst_expect = 0.0
    for i in range(20):
        S = random_state(shapes[i % len(shapes)], seed=100 + i)
        G = gns_build(S)
        for idx in all_matrix_units(S.sig):
            x = matrix_unit(S.sig, *idx)
            worst_expect = max(
                worst_expect, abs(G.expectation(x) - state_evaluate(S, x))
            )

    pairs = [
        (random_state((2,), seed=200), random_state((2,), seed=201)),
        (random_state((2,), seed=202), random_state((3,), seed=203)),
        (random_state((3,), seed=204), random_state((3,), seed=205)),
        (random_state((2, 2), seed=206), random_state((2, 2), seed=207)),
        (atom_state(AtomLabel(2, (1, 2)), 2), random_state((2, 2), seed=208)),
    ]
    worst_unitary = worst_intertwine = 0.0
    max_dim = 0
    for S, R in pairs:
        U = gns_intertwiner(S, R)
        D = U.shape[0]
        max_dim = max(max_dim, D)
        worst_unitary = max(
            worst_unitary,
            float(np.max(np.abs(U.conj().T @ U - np.eye(D)))),
        )
        G_fused = gns_build(state_boxtimes(S, R))
        G_tensor = gns_tensor_phi(gns_build(S), gns_build(R))
        for idx in all_matrix_units(G_fused.sig):
            lhs = U @ G_fused.rep_unit(idx) @ U.conj().T
            worst_intertwine = max(
                worst_intertwine,
                float(np.max(np.abs(lhs - G_tensor.rep_unit(idx)))),
            )
    elapsed = time.time() - start
    ok = (worst_expect <= 1e-10 and worst_unitary <= 1e-8
          and worst_intertwine <= 1e-8 and max_dim <= 256 and elapsed < 60.0)
    report(6, f"20 states expectation dev {worst_expect:.2e}; intertwiner "
              f"unitarity dev {worst_unitary:.2e}, relation dev "
              f"{worst_intertwine:.2e}, max dim {max_dim} ({elapsed:.1f}s)",
           ok)


def test_criterion_07_irreducibility():
    atom = atom_state(AtomLabel(2, (1, 2, 2)), 3)
    atom_dim = commutant_dimension(gns_build(atom))
    trace = ProductStateTrunc([DensityFactor.maximally_mixed(2)])
    trace_dim = commutant_dimension(gns_build(trace))
    ok = atom_dim == 1 and trace_dim == 4
    report(7, f"commutant dims: atom (2,2,2) -> {atom_dim}, trace level 1 "
              f"-> {trace_dim}", ok)


def test_criterion_08_atom_semigroup():
    start = time.time()
    result = suite_atom_semigroup((2, 2), 3)
    elapsed = time.time() - start
    ok = result.failed == 0 and result.passed == 64 and elapsed < 30.0
    report(8, f"{result.passed}/64 label pairs verified on all level-3 "
              f"units ({elapsed:.1f}s)", ok)


def test_criterion_09_trace_distance_separation():
    T = DensityFactor.diagonal([1, 0])
    R = DensityFactor.diagonal([0, 1])
    worst = 0.0
    for level in (1, 2, 3):
        S1 = state_boxtimes(ProductStateTrunc([T] * level),
                            ProductStateTrunc([R] * level))
        S2 = state_boxtimes(ProductStateTrunc([R] * level),
                            ProductStateTrunc([T] * level))
        worst = max(worst, abs(state_trace_distance(S1, S2) - 2.0))
    ok = worst <= 1e-12
    report(9, f"witness distance = 2 at levels 1..3, max deviation "
              f"{worst:.2e}", ok)


def test_criterion_10_state_associativity():
    result = suite_state_associativity((2, 2, 2), 2, seed=10)
    ok = result.failed == 0
    report(10, f"both bracketings agree on {result.passed} level-2 units",
           ok)
