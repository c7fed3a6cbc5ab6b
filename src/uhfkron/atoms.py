"""Atom states: the pure diagonal product states of atom labels, and
their semigroup.

An atom label J over {1, ..., n} (:class:`~uhfkron.labels.AtomLabel`)
determines the pure product state whose l-th factor is the diagonal unit
E_{j_l j_l}; the entrywise label product

    (J . K)_l = m*(j_l - 1) + k_l        (K over {1, ..., m})

mirrors the Kronecker product of the corresponding one-hot factors, so
the boxtimes product of two atom states is again an atom state, with the
product label over base n*m.  :func:`atom_check_product` verifies that
identity from both ends — exact 0/1 factor equality and agreement of the
coproduct-composed evaluation on every matrix unit.

The labels and their product are integer arithmetic and live in
:mod:`uhfkron.labels`, which loads no numpy; this module re-exports
``AtomLabel`` and ``atom_label_product``, so ``uhfkron.atoms`` binds them
at module level as before.

Every check goes through one core, ``_check_pairs``, which takes all the
label pairs of a call at once, each with the label it is checked against
(the product label for :func:`atom_check_product` and every pair of the
``atom-semigroup`` suite; a corrupted one for a negative control).  A
call builds one state per distinct label, and its states share one
validated one-hot factor per (base, letter).  Each pair still gets its
own ``state_boxtimes``, whose factors are Kronecker products by one
broadcast multiply (``DensityFactor.boxtimes``), and its own exact factor
comparison.  The unit sweep is shared by all pairs: the pairs' entry
tables are stacked once, one column per pair, and per chunk of units
(``sweeps._tagged_units``) the coproduct image is made once and each
side is read by ``sweeps._tagged_values``, the one reader of tagged
chunks, which runs the slot-by-slot products of
:func:`~uhfkron.states.state_evaluate`; so the values equal (``==``)
what a per-pair evaluation gives.  Each pair reports its first failing
unit in unit order.
"""

from __future__ import annotations

import numpy as np

from .algebra import _guard_units, coproduct_phi
from .errors import IndexRangeError, _integer
from .labels import AtomLabel, atom_label_product
from .states import DensityFactor, ProductStateTrunc, state_boxtimes
from .sweeps import (
    _stacked_entry_table,
    _tagged_units,
    _tagged_values,
    _unit_name,
)

__all__ = [
    "AtomLabel",
    "AtomProductCheck",
    "atom_state",
    "atom_label_product",
    "atom_check_product",
]


def atom_state(label: AtomLabel, level: int) -> ProductStateTrunc:
    """The level-``level`` truncation of the pure product state of a label.

    Factor l is the one-hot density E_{j_l j_l} on M_base.  ``level`` is
    an integer >= 1, else :class:`IndexRangeError`; a level above
    ``DENSE_DIM_GUARD`` raises :class:`ResourceGuardError` before any
    factor is built.
    """
    level = _integer(level, IndexRangeError, "level", low=1)
    return _atom_state(label, level, {})


def _atom_state(label: AtomLabel, level: int,
                one_hot: dict) -> ProductStateTrunc:
    # atom_state at a read level; the factor E_{jj} on M_base is
    # one_hot[base, j], made and put there on first use, so every state
    # built with one dict shares it
    factors = []
    for j in label.entries(level):
        factor = one_hot.get((label.base, j))
        if factor is None:
            diagonal = np.zeros(label.base)
            diagonal[j - 1] = 1.0
            factor = one_hot[label.base, j] = DensityFactor.diagonal(diagonal)
        factors.append(factor)
    return ProductStateTrunc(factors)


class AtomProductCheck:
    """Outcome of :func:`atom_check_product`: truthy iff both checks pass.

    On failure ``diagnostic`` says which check broke and where.
    """

    __slots__ = ("passed", "diagnostic")

    def __init__(self, passed: bool, diagnostic: str | None = None):
        self.passed = passed
        self.diagnostic = diagnostic

    def __bool__(self) -> bool:
        return self.passed

    def __repr__(self):
        if self.passed:
            return "AtomProductCheck(passed)"
        return f"AtomProductCheck(failed: {self.diagnostic})"


def atom_check_product(J: AtomLabel, K: AtomLabel,
                       level: int) -> AtomProductCheck:
    """Verify the semigroup law on states at one level, from both ends.

    Checks (1) that the factorwise Kronecker product of the two atom
    states equals the atom state of the product label
    (:func:`atom_label_product`) exactly (0/1 entries), and (2) that the
    coproduct-composed evaluation of the two states agrees with the
    product-label state on every level-``level`` matrix unit, one tagged
    chunk of units at a time.  Never raises on mismatch; returns a falsy
    result carrying a position diagnostic.  A level at which (2) would
    check more than ``DENSE_DIM_GUARD**2`` units raises
    :class:`ResourceGuardError` before any state is built.
    """
    return _check_pairs([(J, K, atom_label_product(J, K))], level)[0]


def _check_pairs(pairs, level) -> list[AtomProductCheck]:
    """:func:`atom_check_product` of each ``(J, K, expected)`` triple at one
    level, in order, against ``expected``; every J has one base, every K one.

    Each label's state is built once, from one one-hot factor per (base,
    letter); the pairs that pass check (1) share one unit sweep
    (:func:`_first_bad_units`).
    """
    level = _integer(level, IndexRangeError, "level", low=1)
    fused_dim = pairs[0][0].base * pairs[0][1].base
    _guard_units("atom_check_product", fused_dim ** 2, level)
    one_hot, states = {}, {}
    results, swept = [], []
    for J, K, expected in pairs:
        for label in (J, K, expected):
            if label not in states:
                states[label] = _atom_state(label, level, one_hot)
        SJ, SK, S_expected = states[J], states[K], states[expected]
        results.append(_factor_check(state_boxtimes(SJ, SK), S_expected))
        if results[-1]:
            swept.append((len(results) - 1, SJ.factors + SK.factors,
                          S_expected.factors))
    if swept:  # every pair's SJ and SK have the signatures of the last
        for p, unit in _first_bad_units(swept, SJ.sig, SK.sig):
            results[p] = AtomProductCheck(
                False, f"coproduct evaluation differs on unit {unit}")
    return results


def _factor_check(boxed: ProductStateTrunc,
                  S_expected: ProductStateTrunc) -> AtomProductCheck:
    # check (1): the boxtimes state has exactly the expected factors
    if boxed.sig != S_expected.sig:
        return AtomProductCheck(
            False,
            f"signature mismatch: {boxed.sig.dims} vs {S_expected.sig.dims}",
        )
    for pos, (f, g) in enumerate(zip(boxed.factors, S_expected.factors),
                                 start=1):
        if not np.array_equal(f.matrix, g.matrix):
            return AtomProductCheck(
                False, f"boxtimes factor differs from product label at "
                       f"position {pos}"
            )
    return AtomProductCheck(True)


def _first_bad_units(swept, a, b) -> list[tuple[int, str]]:
    """Check (2) for the ``(p, left factors, expected factors)`` of pairs
    whose left states are over ``a`` then ``b``: each failing pair's ``p``
    and the name of its first unit, in unit order, where the two sides do
    not have exactly one value each or the values differ.

    Per chunk of units the coproduct image is made once, and each side's
    values for every pair come from one ``sweeps._tagged_values`` read of
    the pairs' entry tables, stacked one column per pair.
    """
    fused = a.product(b)
    left = _stacked_entry_table([pair[1] for pair in swept], a.concat(b))
    right = _stacked_entry_table([pair[2] for pair in swept], fused)
    pending = np.ones(len(swept), dtype=bool)
    bad_units = []
    for x in _tagged_units(fused, len(swept)):
        (n_left, v_left), (n_right, v_right) = (
            _tagged_values(left, coproduct_phi(x, a, b), len(x)),
            _tagged_values(right, x, len(x)))
        single = (n_left == 1) & (n_right == 1)
        bad = (v_left != v_right) | ~single[:, None]
        failing = np.flatnonzero(pending & bad.any(axis=0))
        for q, k in zip(failing, bad[:, failing].argmax(axis=0)):
            bad_units.append((swept[q][0], _unit_name(x, k)))
        pending[failing] = False
        if not pending.any():
            break
    return bad_units
