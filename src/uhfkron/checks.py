"""Named property suites: each re-verifies one structural identity and
reports pass/fail counts, for the command-line ``check`` subcommand and
the acceptance tests.

Every suite enumerates concrete instances (matrix units, seeded random
elements or states), runs both sides of its identity through independent
code paths, and counts agreements.  Failures carry a short diagnostic.
Every suite takes ``(dims, level, seed, tol)`` and reads them through
one reader, ``_suite_args``: ``dims`` a sequence of as many integers as
the suite has bases (``nonsymmetry`` ignores it), ``level`` an integer
>= 1, ``seed`` an integer >= 0 and ``tol`` a finite number >= 0, else
:class:`ValidationError`.  Suites that compare indices exactly accept
``tol`` and ignore it.

The suites exhaustive on matrix units run each side of their identity
once per chunk of the unit grid, on one element whose coefficients tag
the chunk's units (``algebra._tagged_units``), and read every unit's
images or values back by tag with array operations (state values through
``states._tagged_values``); results are still recorded per unit, in unit
order.  The exact suites decide a chunk whose two sides are one term list
(equal arrays, term by term) by its tag counts alone and key the images of
any other chunk, so pass/fail does not rely on the term order of the maps
they check.  The two associativity suites get each chunk's two bracketings
from one function, ``_bracketings``.  Before enumerating, each refuses
more than ``DENSE_DIM_GUARD**2`` unit checks with
:class:`ResourceGuardError` (``algebra._guard_units``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    COMPARE_TOL,
    AlgebraElement,
    Signature,
    _entries,
    _finite,
    _guard_units,
    _index_keys,
    _integer,
    _integers,
    _moduli,
    _pair_keys,
    _tagged_units,
    _unit_name,
    _unit_tags,
    coproduct_phi,
    coproduct_phi_block,
    embed_psi,
    identity,
    insert_identity_slot,
    matrix_unit,
    random_element,
)
from .atoms import AtomLabel, _check_pairs, atom_label_product
from .errors import ValidationError
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

    def record(self, ok: bool, diagnostic: str):
        """Record one outcome, as :meth:`record_units` records a unit."""
        self.record_units(np.array([bool(ok)]), lambda _: diagnostic)

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


def _suite_args(dims, level, seed, tol, names: tuple[str, ...]) -> tuple:
    """A suite's ``(dims, level, seed, tol)``, read: ``tol`` a finite
    number >= 0 (returned as a float), ``seed`` an integer >= 0, ``level``
    an integer >= 1 and ``dims`` a sequence of one integer per name in
    ``names`` (left unread when ``names`` is empty).  Anything else raises
    ValidationError naming the value as it was given.
    """
    tol = _finite(tol, "tolerance")
    seed = _integer(seed, ValidationError, "seed", low=0)
    level = _integer(level, ValidationError, "level", low=1)
    if names:
        given = dims
        dims = _integers(_entries(dims, ValidationError, "dims"),
                         ValidationError, "dimension", " at position {}")
        if len(dims) != len(names):
            raise ValidationError(f"need {len(names)} dims "
                                  f"({', '.join(names)}), got {given!r}")
    return dims, level, seed, tol


def _constant_sigs(dims: tuple[int, ...], level: int, suite: str,
                   power: int) -> list[Signature]:
    """One constant level-``level`` signature per base in ``dims``.

    Every base is read as a factor dimension (:class:`SignatureError`),
    then the suite's ``prod(dims)**power`` unit checks per level are
    guarded (``algebra._guard_units``), before a level-long tuple is built.
    """
    Signature(dims)
    _guard_units(suite, math.prod(dims) ** power, level)
    return [_constant_sig(d, level) for d in dims]


def _constant_sig(base: int, level: int) -> Signature:
    return Signature((base,) * level)


def _record_images(report: CheckReport, x: AlgebraElement, lhs, rhs,
                   count: int, what: str):
    # each unit's tag must carry the same ``count`` images on both sides;
    # sides that are one term list carry the same images per tag, so their
    # tag counts alone decide
    units = len(x)
    same = lhs.sig == rhs.sig and all(map(
        np.array_equal, (lhs.coeff, lhs.rows, lhs.cols),
        (rhs.coeff, rhs.rows, rhs.cols)))
    tags = [_unit_tags(y, units) for y in ((lhs,) if same else (lhs, rhs))]
    ok = np.ones(units, dtype=bool)
    for tag in tags:
        ok &= np.bincount(tag[tag >= 0], minlength=units) == count
    if lhs.sig != rhs.sig:
        ok[:] = False
    if ok.any() and not same:
        # every image keyed (unit, rows, cols), its index keyed from each
        # side's own index arrays so that keys compare across the sides;
        # then only the keys of units with ``count`` on both sides are
        # kept: sorted, the two sides must match entry by entry
        tag = np.concatenate(tags)
        keys, _ = _pair_keys((tag, units), _index_keys(lhs, rhs))
        mine = tag >= 0
        mine[mine] = ok[tag[mine]]
        keys = keys[mine]
        half = len(keys) // 2  # as many kept keys on each side
        unit = np.flatnonzero(ok).repeat(count)  # each sorted key's unit
        ok[unit[np.sort(keys[:half]) != np.sort(keys[half:])]] = False
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
    once per chunk of units (see ``_bracketings``).
    """
    dims, level, seed, tol = _suite_args(dims, level, seed, tol,
                                         ("a", "b", "c"))
    report = CheckReport("coassociativity")
    _bracketings(*_constant_sigs(dims, level, "coassociativity", 2),
                 lambda x, left, right: _record_images(
                     report, x, left, right, 1, "paths differ"))
    return report


def _bracketings(a: Signature, b: Signature, c: Signature, record):
    # record(x, left, right) per tagged chunk x of the stage a.b.c: its
    # images under (phi (x) id) o phi and (id (x) phi) o phi.  Images live
    # until the next chunk's are made: freed sooner, coassociativity (2,3,2)
    # L2 faulted fresh pages (1121 against 417 per run), 4.7 against 3.2 ms
    # on a 2-vCPU Xeon
    ab, bc, n = a.product(b), b.product(c), a.level
    for x in _tagged_units(ab.product(c)):
        left = coproduct_phi_block(coproduct_phi(x, ab, c), 0, n, a, b)
        right = coproduct_phi_block(coproduct_phi(x, a, bc), n, n, b, c)
        record(x, left, right)


def suite_compatibility(dims: tuple[int, ...], level: int,
                        seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Extending the stage then splitting equals splitting then extending.

    ``dims`` = (a, b) factor bases; exhaustive on the units of the
    level-``level`` fused stage, with the extension by one more (a, b)
    factor.  Exact; each unit has ``a*b`` images on either side.
    """
    dims, level, seed, tol = _suite_args(dims, level, seed, tol, ("a", "b"))
    a_base, b_base = dims
    a, b = _constant_sigs(dims, level, "compatibility", 2)
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
    dims, level, seed, tol = _suite_args(dims, level, seed, tol, ("a", "b"))
    # the unit check enumerates the fused stage's diagonal units
    a, b = _constant_sigs(dims, level, "star-isomorphism", 1)
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
    the fused stage's matrix units, each within ``tol``.
    """
    dims, level, seed, tol = _suite_args(dims, level, seed, tol, ("a", "b"))
    a, b = _constant_sigs(dims, level, "tensor-formula", 2)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    SR = S.concat(R)._entry_table()
    boxed = state_boxtimes(S, R)._entry_table()
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
    dims, level, seed, tol = _suite_args(dims, level, seed, tol, ())
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
    """Exhaustive label pairs: the state product realizes the label product.

    Every pair is checked as :func:`~uhfkron.atoms.atom_check_product`
    checks it, all of them in one batch that shares its states' factors
    and its unit sweep.
    """
    dims, level, seed, tol = _suite_args(dims, level, seed, tol, ("n", "m"))
    # a base below 2 has no labels, and no labels would read as a pass
    n, m = _integers(dims, ValidationError, "label base", "", low=2)
    # (n*m)**level label pairs, each checked on (n*m)**(2*level) units
    _guard_units("atom-semigroup", (n * m) ** 3, level)
    report = CheckReport("atom-semigroup")
    pairs = [(J, K, atom_label_product(J, K))
             for J in _labels(n, level) for K in _labels(m, level)]
    results = _check_pairs(pairs, level)
    report.record_units(
        np.array(list(map(bool, results)), dtype=bool),
        lambda k: f"J={pairs[k][0].prefix} K={pairs[k][1].prefix}: "
                  f"{results[k].diagnostic}")
    return report


def _labels(base: int, level: int):
    # every label of length ``level``, lexicographic
    for prefix in itertools.product(range(1, base + 1), repeat=level):
        yield AtomLabel(base, prefix)


def suite_state_associativity(dims: tuple[int, ...], level: int,
                              seed: int = 0, tol: float = COMPARE_TOL) -> CheckReport:
    """Both bracketings of a state triple agree on every fused unit."""
    dims, level, seed, tol = _suite_args(dims, level, seed, tol,
                                         ("a", "b", "c"))
    a, b, c = _constant_sigs(dims, level, "state-associativity", 2)
    S = random_state(a, seed=seed + 1)
    R = random_state(b, seed=seed + 2)
    Q = random_state(c, seed=seed + 3)
    triple = ProductStateTrunc(
        S.factors + R.factors + Q.factors)._entry_table()
    report = CheckReport("state-associativity")
    _bracketings(a, b, c, lambda x, left, right: _record_values(
        report, x, _tagged_values(triple, left, len(x)),
        _tagged_values(triple, right, len(x)), tol))
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
    """Dispatch by suite name; an unknown name raises ValidationError, and
    the suite reads its arguments as :func:`_suite_args` says."""
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](dims, level, seed, tol)
