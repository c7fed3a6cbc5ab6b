"""Named property suites: each re-verifies one structural identity and
reports pass/fail counts, for the command-line ``check`` subcommand and
the acceptance tests.

Every suite enumerates concrete instances (matrix units, seeded random
elements or states), runs both sides of its identity through independent
code paths, and counts agreements.  Failures carry a short diagnostic.
Every suite takes ``(dims, level, seed, tol)``; suites that compare
indices exactly accept ``tol`` and ignore it.

The suites exhaustive on matrix units run each side of their identity
once per chunk of the unit grid, on one element whose coefficients tag
the chunk's units (``algebra._tagged_units``), and read every unit's
images or values back by tag with array operations; results are still
recorded per unit, in unit order.  Before enumerating, each refuses more
than ``DENSE_DIM_GUARD**2`` unit checks with :class:`ResourceGuardError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    COMPARE_TOL,
    DENSE_DIM_GUARD,
    AlgebraElement,
    Signature,
    _index_radices,
    _lex_keys,
    _moduli,
    _tagged_units,
    _unit_tags,
    coproduct_phi,
    coproduct_phi_block,
    embed_psi,
    identity,
    insert_identity_slot,
    matrix_unit,
    random_element,
)
from .atoms import AtomLabel, atom_check_product
from .errors import ResourceGuardError, ValidationError
from .states import (
    DensityFactor,
    ProductStateTrunc,
    _tagged_values,
    random_state,
    state_boxtimes,
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

    def record(self, ok: bool, diagnostic: str | None):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _MAX_RECORDED_FAILURES:
                self.failures.append(diagnostic)

    def record_units(self, ok: np.ndarray,
                     diagnostic: Callable[[int], str]):
        """Record one outcome per unit, in order; ``diagnostic(k)`` is the
        text of failing unit ``k`` (built only for recorded failures)."""
        bad = np.flatnonzero(~ok)
        self.passed += len(ok) - len(bad)
        self.failed += len(bad)
        room = _MAX_RECORDED_FAILURES - len(self.failures)
        self.failures.extend(diagnostic(int(k)) for k in bad[:max(room, 0)])

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _constant_sig(base: int, level: int) -> Signature:
    Signature((base,))  # a bad base fails before a long tuple is built
    return Signature((base,) * level)


def _guard_units(suite: str, per_level: int, level: int):
    """Refuse a suite that would check more than DENSE_DIM_GUARD**2 units.

    The count is ``per_level**level``; it is built one level at a time, so
    a huge level is refused without computing the power.  Non-positive
    levels and bad dimensions are left to the suite's own validation.
    """
    cap = DENSE_DIM_GUARD ** 2
    count = 1
    for _ in range(level):
        count *= per_level
        if count > cap:
            raise ResourceGuardError(
                f"{suite} at level {level} would check more than {cap} "
                f"units (guard {DENSE_DIM_GUARD}**2)"
            )
        if count < 2:
            return


def _unit_name(x: AlgebraElement, k: int) -> str:
    # unit k of a tagged chunk is term k of the chunk's element
    return f"{tuple(x.rows[k].tolist())}<-{tuple(x.cols[k].tolist())}"


def _record_images(report: CheckReport, x: AlgebraElement, lhs, rhs,
                   count: int, what: str):
    # each unit's tag must carry the same ``count`` images on both sides
    units = len(x)
    tags = [_unit_tags(y, units) for y in (lhs, rhs)]
    ok = np.ones(units, dtype=bool)
    for tag in tags:
        ok &= np.bincount(tag[tag >= 0], minlength=units) == count
    if lhs.sig != rhs.sig:
        ok[:] = False
    # the images of the units with ``count`` on both sides, keyed (unit,
    # rows, cols): sorted, the two sides must match entry by entry
    sides = []
    for y, tag in zip((lhs, rhs), tags):
        mine = tag >= 0
        mine[mine] = ok[tag[mine]]
        sides.append(np.concatenate(
            [tag[mine, None], y.rows[mine], y.cols[mine]], axis=1))
    if ok.any():
        keys = _lex_keys(np.concatenate(sides),
                         [units] + _index_radices(lhs.sig))
        left, right = np.split(keys, [len(sides[0])])
        unit = np.sort(sides[0][:, 0])
        ok[unit[np.sort(left) != np.sort(right)]] = False
    report.record_units(ok, lambda k: f"{what} on unit {_unit_name(x, k)}")


def _record_values(report: CheckReport, x: AlgebraElement, lhs, rhs,
                   tol: float):
    # each unit's tag must carry exactly one value on both sides, within tol
    (n_left, left), (n_right, right) = lhs, rhs
    single = (n_left == 1) & (n_right == 1)
    diff = _moduli(left - right)
    ok = single & (diff <= tol)

    def diagnostic(k):
        if single[k]:
            text = f"values differ by {diff[k]:.3e}"
        else:
            text = f"{n_left[k]}/{n_right[k]} values"
        return f"{text} on unit {_unit_name(x, k)}"

    report.record_units(ok, diagnostic)


def suite_coassociativity(dims: tuple[int, ...], level: int,
                          seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Both orders of splitting a triple product agree on every unit.

    ``dims`` = (a, b, c) factor bases; signatures are constant at the
    given level.  Exact index equality, no tolerance.  Each side runs
    once per chunk of units (see ``algebra._tagged_units``).
    """
    if len(dims) != 3:
        raise ValidationError(f"need three dims (a, b, c), got {dims}")
    _guard_units("coassociativity", math.prod(dims) ** 2, level)
    a, b, c = (_constant_sig(d, level) for d in dims)
    ab, bc = a.product(b), b.product(c)
    report = CheckReport("coassociativity")
    for x in _tagged_units(ab.product(c)):
        left = coproduct_phi_block(coproduct_phi(x, ab, c), 0, level, a, b)
        right = coproduct_phi_block(coproduct_phi(x, a, bc), level, level,
                                    b, c)
        _record_images(report, x, left, right, 1, "paths differ")
    return report


def suite_compatibility(dims: tuple[int, ...], level: int,
                        seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Extending the stage then splitting equals splitting then extending.

    ``dims`` = (a, b) factor bases; exhaustive on the units of the
    level-``level`` fused stage, with the extension by one more (a, b)
    factor.  Exact; each unit has ``a*b`` images on either side.
    """
    if len(dims) != 2:
        raise ValidationError(f"need two dims (a, b), got {dims}")
    _guard_units("compatibility", math.prod(dims) ** 2, level)
    a_base, b_base = dims
    a, b = _constant_sig(a_base, level), _constant_sig(b_base, level)
    ext_a, ext_b = a.dims + (a_base,), b.dims + (b_base,)
    report = CheckReport("compatibility")
    for x in _tagged_units(a.product(b), a_base * b_base):
        lhs = coproduct_phi(embed_psi(x, a_base * b_base), ext_a, ext_b)
        rhs = coproduct_phi(x, a, b)
        rhs = insert_identity_slot(rhs, level, a_base)
        rhs = insert_identity_slot(rhs, 2 * level + 1, b_base)
        _record_images(report, x, lhs, rhs, a_base * b_base, "sides differ")
    return report


def suite_star_isomorphism(dims: tuple[int, ...], level: int,
                           seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """The coproduct preserves products, adjoints, and the unit.

    Products and adjoints of 20 seeded random element pairs agree within
    ``tol``.
    """
    if len(dims) != 2:
        raise ValidationError(f"need two dims (a, b), got {dims}")
    # the unit check enumerates the fused stage's diagonal units
    _guard_units("star-isomorphism", math.prod(dims), level)
    a, b = (_constant_sig(d, level) for d in dims)
    fused = a.product(b)
    report = CheckReport("star-isomorphism")
    report.record(
        coproduct_phi(identity(fused), a, b) == identity(a.concat(b)),
        "unit is not preserved",
    )
    for i in range(20):
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
    _guard_units("tensor-formula", math.prod(dims) ** 2, level)
    a, b = (_constant_sig(d, level) for d in dims)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    SR = S.concat(R)
    boxed = state_boxtimes(S, R)
    report = CheckReport("tensor-formula")
    for x in _tagged_units(a.product(b)):
        _record_values(report, x,
                       _tagged_values(SR, coproduct_phi(x, a, b), len(x)),
                       _tagged_values(boxed, x, len(x)), tol)
    return report


def suite_nonsymmetry(dims: tuple[int, ...] = (), level: int = 3,
                      seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """The orthogonal pure witnesses separate the two factor orders.

    Per level up to ``level`` (at least 1): the witness element evaluates
    to +1 one way and -1 the other, and the trace distance of the two
    product states is exactly 2.  ``dims`` is ignored (the witnesses are
    2x2).
    """
    if level < 1:
        raise ValidationError(f"level {level} is < 1")
    # level L compares two dense 4**L x 4**L densities: (4**L)**2 entries
    _guard_units("nonsymmetry", 16, level)
    S = ProductStateTrunc([DensityFactor.diagonal([1.0, 0.0])])
    R = ProductStateTrunc([DensityFactor.diagonal([0.0, 1.0])])
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
    if level < 1:
        raise ValidationError(f"level {level} is < 1")
    n, m = dims
    # (n*m)**level label pairs, each checked on (n*m)**(2*level) units
    _guard_units("atom-semigroup", (n * m) ** 3, level)
    report = CheckReport("atom-semigroup")
    for J in _labels(n, level):
        for K in _labels(m, level):
            result = atom_check_product(J, K, level)
            report.record(
                bool(result),
                f"J={J.prefix} K={K.prefix}: {result.diagnostic}",
            )
    return report


def _labels(base: int, level: int):
    # every label of length ``level``, lexicographic
    for prefix in itertools.product(range(1, base + 1), repeat=level):
        yield AtomLabel(base, prefix)


def suite_state_associativity(dims: tuple[int, ...], level: int,
                              seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Both bracketings of a state triple agree on every fused unit."""
    if len(dims) != 3:
        raise ValidationError(f"need three dims (a, b, c), got {dims}")
    _guard_units("state-associativity", math.prod(dims) ** 2, level)
    a, b, c = (_constant_sig(d, level) for d in dims)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    Q = random_state(c, seed=seed + 3)
    triple = ProductStateTrunc(S.factors + R.factors + Q.factors)
    ab, bc = a.product(b), b.product(c)
    report = CheckReport("state-associativity")
    for x in _tagged_units(ab.product(c)):
        left = coproduct_phi_block(coproduct_phi(x, ab, c), 0, level, a, b)
        right = coproduct_phi_block(coproduct_phi(x, a, bc), level, level,
                                    b, c)
        _record_values(report, x, _tagged_values(triple, left, len(x)),
                       _tagged_values(triple, right, len(x)),
                       max(tol, 1e-10))
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
    """Dispatch by suite name.  An unknown name, a tolerance that is not a
    finite number >= 0 and a negative seed raise ValidationError."""
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tolerance {tol!r} is not a finite number >= 0")
    if seed < 0:
        raise ValidationError(f"seed {seed} is < 0")
    return SUITES[name](dims, level, seed, tol)
