"""Atom labels and their product, in integer arithmetic alone.

An atom label is a sequence over {1, ..., n}, stored as a finite prefix
plus an optional constant tail for sequences that eventually repeat one
letter.  The entrywise label product

    (J . K)_l = m*(j_l - 1) + k_l        (K over {1, ..., m})

is a label over base n*m.  It mirrors the Kronecker product of the
one-hot factors of the labels' pure product states, which
:mod:`uhfkron.atoms` builds and checks.  This module imports only
``dataclasses`` and ``errors``, so the ``atom-product`` request loads no
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IndexRangeError,
    ValidationError,
    _entries,
    _guard,
    _integer,
    _integers,
)

__all__ = ["AtomLabel", "atom_label_product"]


@dataclass(frozen=True)
class AtomLabel:
    """Label sequence over {1, ..., base}: finite prefix, optional tail.

    ``base`` is an integer >= 2, the prefix a non-empty sequence of
    integers in 1..base and ``tail_constant`` one too (anything else raises
    :class:`ValidationError`).

    ``tail_constant``, when set, extends the prefix periodically with one
    repeated letter, so entries are defined at every level.
    """

    base: int
    prefix: tuple[int, ...]
    tail_constant: int | None = None

    def __post_init__(self):
        base = _integer(self.base, ValidationError, "label base", low=2)
        prefix = _integers(
            _entries(self.prefix, ValidationError, "label prefix"),
            ValidationError, "label entry", " at position {}", low=1,
            high=base)
        if not prefix:
            raise ValidationError("label prefix must be non-empty")
        tail = self.tail_constant
        if tail is not None:
            tail = _integer(tail, ValidationError, "tail constant", low=1,
                            high=base)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail_constant", tail)

    def entry(self, l: int) -> int:
        """The l-th letter (1-based), using the tail beyond the prefix.  A
        position that is no integer >= 1, or past a prefix with no tail,
        raises :class:`IndexRangeError`."""
        l = _integer(l, IndexRangeError, "label position", low=1)
        if l <= len(self.prefix):
            return self.prefix[l - 1]
        if self.tail_constant is None:
            raise IndexRangeError(
                f"label position {l} exceeds prefix length {len(self.prefix)} "
                f"and no tail constant is set"
            )
        return self.tail_constant

    def entries(self, level: int) -> tuple[int, ...]:
        """The first ``level`` letters.  A level that is no integer >= 1
        raises :class:`IndexRangeError`, and one above ``DENSE_DIM_GUARD``
        :class:`ResourceGuardError`: with a tail, the letters (and a
        state's factors) would fill memory."""
        level = _integer(level, IndexRangeError, "label level", low=1)
        _guard("label level", level)
        return tuple(self.entry(l) for l in range(1, level + 1))

    def __repr__(self):
        tail = f", tail={self.tail_constant}" if self.tail_constant else ""
        return f"AtomLabel(base={self.base}, prefix={self.prefix}{tail})"


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
