"""Named property suites: each re-verifies one structural identity and
reports pass/fail counts, for the command-line ``check`` subcommand and
the acceptance tests.

Every suite enumerates concrete instances (matrix units, seeded random
elements or states), runs both sides of its identity through independent
code paths, and counts agreements.  Failures carry a short diagnostic.
Every suite takes ``(dims, level, seed, tol)``; suites that compare
indices exactly accept ``tol`` and ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    COMPARE_TOL,
    Signature,
    all_matrix_units,
    coproduct_phi,
    coproduct_phi_block,
    embed_psi,
    identity,
    insert_identity_slot,
    matrix_unit,
    random_element,
)
from .atoms import AtomLabel, atom_check_product
from .errors import ValidationError
from .states import (
    ProductStateTrunc,
    random_state,
    state_boxtimes,
    state_evaluate,
    state_tensor_phi_eval,
    state_trace_distance,
)

__all__ = [
    "CheckReport",
    "SUITES",
    "run_suite",
    "suite_coassociativity",
    "suite_compatibility",
    "suite_star_isomorphism",
    "suite_tensor_formula",
    "suite_nonsymmetry",
    "suite_atom_semigroup",
    "suite_state_associativity",
]

_MAX_RECORDED_FAILURES = 20


@dataclass
class CheckReport:
    """Outcome of one suite: counts plus up to 20 failure diagnostics."""

    suite: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, diagnostic: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _MAX_RECORDED_FAILURES:
                self.failures.append(diagnostic)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        out = {"suite": self.suite, "passed": self.passed,
               "failed": self.failed}
        if self.failures:
            out["failures"] = list(self.failures)
        return out


def _constant_sig(base: int, level: int) -> Signature:
    return Signature((base,) * level)


def suite_coassociativity(dims: tuple[int, ...], level: int,
                          seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Both orders of splitting a triple product agree on every unit.

    ``dims`` = (a, b, c) factor bases; signatures are constant at the
    given level.  Exact index equality, no tolerance.
    """
    if len(dims) != 3:
        raise ValidationError(f"need three dims (a, b, c), got {dims}")
    a, b, c = (_constant_sig(d, level) for d in dims)
    fused = a.product(b).product(c)
    report = CheckReport("coassociativity")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        left = coproduct_phi_block(
            coproduct_phi(x, a.product(b), c), 0, level, a, b
        )
        right = coproduct_phi_block(
            coproduct_phi(x, a, b.product(c)), level, level, b, c
        )
        report.record(
            left == right,
            f"paths differ on unit {tuple(idx.rows)}<-{tuple(idx.cols)}",
        )
    return report


def suite_compatibility(dims: tuple[int, ...], level: int,
                        seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Extending the stage then splitting equals splitting then extending.

    ``dims`` = (a, b) factor bases; exhaustive on the units of the
    level-``level`` fused stage, with the extension by one more (a, b)
    factor.  Exact.
    """
    if len(dims) != 2:
        raise ValidationError(f"need two dims (a, b), got {dims}")
    a_base, b_base = dims
    a, b = _constant_sig(a_base, level), _constant_sig(b_base, level)
    fused = a.product(b)
    report = CheckReport("compatibility")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        lhs = coproduct_phi(
            embed_psi(x, a_base * b_base),
            a.dims + (a_base,), b.dims + (b_base,),
        )
        rhs = coproduct_phi(x, a, b)
        rhs = insert_identity_slot(rhs, level, a_base)
        rhs = insert_identity_slot(rhs, 2 * level + 1, b_base)
        report.record(
            lhs == rhs,
            f"sides differ on unit {tuple(idx.rows)}<-{tuple(idx.cols)}",
        )
    return report


def suite_star_isomorphism(dims: tuple[int, ...], level: int,
                           seed: int = 0, tol: float = COMPARE_TOL,
                           samples: int = 20) -> CheckReport:
    """The coproduct preserves products, adjoints, and the unit.

    Products and adjoints of seeded random elements agree within ``tol``.
    """
    if len(dims) != 2:
        raise ValidationError(f"need two dims (a, b), got {dims}")
    a, b = (_constant_sig(d, level) for d in dims)
    fused = a.product(b)
    report = CheckReport("star-isomorphism")
    report.record(
        coproduct_phi(identity(fused), a, b) == identity(a.concat(b)),
        "unit is not preserved",
    )
    for i in range(samples):
        x = random_element(fused, rng=seed * 1000 + 2 * i, n_terms=8)
        y = random_element(fused, rng=seed * 1000 + 2 * i + 1, n_terms=8)
        ok_mult = coproduct_phi(x * y, a, b).allclose(
            coproduct_phi(x, a, b) * coproduct_phi(y, a, b), tol
        )
        report.record(ok_mult, f"multiplicativity fails on sample {i}")
        ok_star = coproduct_phi(x.adjoint(), a, b).allclose(
            coproduct_phi(x, a, b).adjoint(), tol
        )
        report.record(ok_star, f"adjoint fails on sample {i}")
    return report


def suite_tensor_formula(dims: tuple[int, ...], level: int,
                         seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Coproduct-composed evaluation equals the Kronecker-state evaluation.

    One seeded random state pair over constant signatures; exhaustive over
    the fused stage's matrix units, tolerance 1e-12 per unit.
    """
    if len(dims) != 2:
        raise ValidationError(f"need two dims (a, b), got {dims}")
    a, b = (_constant_sig(d, level) for d in dims)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    fused = a.product(b)
    boxed = state_boxtimes(S, R)
    report = CheckReport("tensor-formula")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        lhs = state_tensor_phi_eval(S, R, x)
        rhs = state_evaluate(boxed, x)
        report.record(
            abs(lhs - rhs) <= tol,
            f"values differ by {abs(lhs - rhs):.3e} on unit "
            f"{tuple(idx.rows)}<-{tuple(idx.cols)}",
        )
    return report


def suite_nonsymmetry(dims: tuple[int, ...] = (), level: int = 3,
                      seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """The orthogonal pure witnesses separate the two factor orders.

    Per level up to ``level``: the witness element evaluates to +1 one way
    and -1 the other, and the trace distance of the two product states
    is exactly 2.  ``dims`` is ignored (the witnesses are 2x2).
    """
    from .parser import parse_state

    S = parse_state("diag(1,0)")
    R = parse_state("diag(0,1)")
    w = matrix_unit(4, 2, 2) - matrix_unit(4, 3, 3)
    report = CheckReport("nonsymmetry")
    for lvl in range(1, level + 1):
        SL = ProductStateTrunc(S.factors * lvl)
        RL = ProductStateTrunc(R.factors * lvl)
        if lvl == 1:
            forward = state_tensor_phi_eval(SL, RL, w)
            backward = state_tensor_phi_eval(RL, SL, w)
            report.record(forward == 1.0, f"forward value {forward} != 1")
            report.record(backward == -1.0, f"backward value {backward} != -1")
        dist = state_trace_distance(
            state_boxtimes(SL, RL), state_boxtimes(RL, SL)
        )
        report.record(
            abs(dist - 2.0) <= tol,
            f"distance {dist} != 2 at level {lvl}",
        )
    return report


def suite_atom_semigroup(dims: tuple[int, ...], level: int,
                         seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Exhaustive label pairs: the state product realizes the label product."""
    if len(dims) != 2:
        raise ValidationError(f"need two dims (n, m), got {dims}")
    n, m = dims
    report = CheckReport("atom-semigroup")

    def labels(base):
        def rec(prefix):
            if len(prefix) == level:
                yield AtomLabel(base, prefix)
                return
            for j in range(1, base + 1):
                yield from rec(prefix + (j,))

        yield from rec(())

    for J in labels(n):
        for K in labels(m):
            result = atom_check_product(J, K, level)
            report.record(
                bool(result),
                f"J={J.prefix} K={K.prefix}: {result.diagnostic}",
            )
    return report


def suite_state_associativity(dims: tuple[int, ...], level: int,
                              seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Both bracketings of a state triple agree on every fused unit."""
    if len(dims) != 3:
        raise ValidationError(f"need three dims (a, b, c), got {dims}")
    a, b, c = (_constant_sig(d, level) for d in dims)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    Q = random_state(c, seed=seed + 3)
    triple = ProductStateTrunc(S.factors + R.factors + Q.factors)
    fused = a.product(b).product(c)
    report = CheckReport("state-associativity")
    for idx in all_matrix_units(fused):
        x = matrix_unit(fused, *idx)
        left = coproduct_phi_block(
            coproduct_phi(x, a.product(b), c), 0, level, a, b
        )
        right = coproduct_phi_block(
            coproduct_phi(x, a, b.product(c)), level, level, b, c
        )
        lhs = state_evaluate(triple, left)
        rhs = state_evaluate(triple, right)
        report.record(
            abs(lhs - rhs) <= max(tol, 1e-10),
            f"values differ by {abs(lhs - rhs):.3e} on unit "
            f"{tuple(idx.rows)}<-{tuple(idx.cols)}",
        )
    return report


SUITES = {
    "coassociativity": suite_coassociativity,
    "compatibility": suite_compatibility,
    "star-isomorphism": suite_star_isomorphism,
    "tensor-formula": suite_tensor_formula,
    "nonsymmetry": suite_nonsymmetry,
    "atom-semigroup": suite_atom_semigroup,
    "state-associativity": suite_state_associativity,
}


def run_suite(name: str, dims: tuple[int, ...], level: int,
              seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Dispatch by suite name; unknown names raise ValidationError."""
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](dims, level, seed, tol)
