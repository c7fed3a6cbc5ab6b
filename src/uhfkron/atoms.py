"""Atom labels and their semigroup of pure diagonal product states.

An atom label is a sequence over {1, ..., n}, stored as a finite prefix
plus an optional constant tail for sequences that eventually repeat one
letter.  The label J determines the pure product state whose l-th factor
is the diagonal unit E_{j_l j_l}; the entrywise label product

    (J . K)_l = m*(j_l - 1) + k_l        (K over {1, ..., m})

mirrors the Kronecker product of the corresponding one-hot factors, so
the boxtimes product of two atom states is again an atom state, with the
product label over base n*m.  :func:`atom_check_product` verifies that
identity from both ends — exact 0/1 factor equality and agreement of the
coproduct-composed evaluation on every matrix unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _unit_rows, coproduct_phi
from .errors import IndexRangeError, ValidationError
from .states import (
    DensityFactor,
    ProductStateTrunc,
    _unit_values,
    state_boxtimes,
)

__all__ = [
    "AtomLabel",
    "AtomProductCheck",
    "atom_state",
    "atom_label_product",
    "atom_check_product",
]


@dataclass(frozen=True)
class AtomLabel:
    """Label sequence over {1, ..., base}: finite prefix, optional tail.

    ``tail_constant``, when set, extends the prefix periodically with one
    repeated letter, so entries are defined at every level.
    """

    base: int
    prefix: tuple[int, ...]
    tail_constant: int | None = None

    def __post_init__(self):
        if self.base < 2:
            raise ValidationError(f"label base {self.base} is < 2")
        prefix = tuple(int(j) for j in self.prefix)
        if not prefix:
            raise ValidationError("label prefix must be non-empty")
        for pos, j in enumerate(prefix, start=1):
            if not 1 <= j <= self.base:
                raise ValidationError(
                    f"label entry {j} at position {pos} outside 1..{self.base}"
                )
        if self.tail_constant is not None and not (
            1 <= self.tail_constant <= self.base
        ):
            raise ValidationError(
                f"tail constant {self.tail_constant} outside 1..{self.base}"
            )
        object.__setattr__(self, "prefix", prefix)

    def entry(self, l: int) -> int:
        """The l-th letter (1-based), using the tail beyond the prefix."""
        if l < 1:
            raise IndexRangeError(f"label position {l} is < 1")
        if l <= len(self.prefix):
            return self.prefix[l - 1]
        if self.tail_constant is None:
            raise IndexRangeError(
                f"label position {l} exceeds prefix length {len(self.prefix)} "
                f"and no tail constant is set"
            )
        return self.tail_constant

    def entries(self, level: int) -> tuple[int, ...]:
        return tuple(self.entry(l) for l in range(1, level + 1))

    def __repr__(self):
        tail = f", tail={self.tail_constant}" if self.tail_constant else ""
        return f"AtomLabel(base={self.base}, prefix={self.prefix}{tail})"


def atom_state(label: AtomLabel, level: int) -> ProductStateTrunc:
    """The level-``level`` truncation of the pure product state of a label.

    Factor l is the one-hot density E_{j_l j_l} on M_base.
    """
    if level < 1:
        raise IndexRangeError(f"level {level} is < 1")
    factors = []
    for j in label.entries(level):
        one_hot = np.zeros(label.base)
        one_hot[j - 1] = 1.0
        factors.append(DensityFactor.diagonal(one_hot))
    return ProductStateTrunc(factors)


def _combined_length(J: AtomLabel, K: AtomLabel) -> int:
    lj, lk = len(J.prefix), len(K.prefix)
    if lj == lk:
        return lj
    longer, shorter = (J, K) if lj > lk else (K, J)
    if shorter.tail_constant is None:
        raise ValidationError(
            f"label lengths differ ({lj} vs {lk}) and the shorter label "
            f"has no tail constant"
        )
    return max(lj, lk)


def atom_label_product(J: AtomLabel, K: AtomLabel) -> AtomLabel:
    """Entrywise product label over base n*m: l -> m*(j_l - 1) + k_l."""
    m = K.base
    length = _combined_length(J, K)
    prefix = tuple(
        m * (J.entry(l) - 1) + K.entry(l) for l in range(1, length + 1)
    )
    tail = None
    if J.tail_constant is not None and K.tail_constant is not None:
        tail = m * (J.tail_constant - 1) + K.tail_constant
    return AtomLabel(J.base * m, prefix, tail)


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


def atom_check_product(J: AtomLabel, K: AtomLabel, level: int,
                       expected: AtomLabel | None = None) -> AtomProductCheck:
    """Verify the semigroup law on states at one level, from both ends.

    Checks (1) that the factorwise Kronecker product of the two atom
    states equals the atom state of the product label exactly (0/1
    entries), and (2) that the coproduct-composed evaluation of the two
    states agrees with the product-label state on every level-``level``
    matrix unit, one row of units per call.  ``expected`` overrides the
    product label (a corrupted label makes the check fail, as a negative
    control).  Never raises on mismatch; returns a falsy result carrying a
    position diagnostic.
    """
    if expected is None:
        expected = atom_label_product(J, K)
    SJ = atom_state(J, level)
    SK = atom_state(K, level)
    S_expected = atom_state(expected, level)

    boxed = state_boxtimes(SJ, SK)
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

    SJK = SJ.concat(SK)
    for units, x in _unit_rows(S_expected.sig):
        lhs = _unit_values(SJK, coproduct_phi(x, SJ.sig, SK.sig))
        rhs = _unit_values(S_expected, x)
        for tag, idx in enumerate(units, start=1):
            left, right = lhs.get(tag, ()), rhs.get(tag, ())
            if len(left) != 1 or left != right:
                return AtomProductCheck(
                    False, f"coproduct evaluation differs on unit "
                           f"{tuple(idx.rows)}<-{tuple(idx.cols)}"
                )
    return AtomProductCheck(True)
