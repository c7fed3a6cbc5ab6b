"""Sparse matrix-unit calculus on finite tensor stages of UHF algebras.

A stage is a tensor product M_{a_1} (x) ... (x) M_{a_n} of full complex
matrix algebras, recorded by its :class:`Signature` ``(a_1, ..., a_n)``.
Elements are sparse linear combinations of elementary tensors of matrix
units E_{jk}; every structural map (multiplication, unital embedding,
Kronecker coproduct) acts on the integer index data
exactly, so floating point enters only through the coefficients.

Index conventions
-----------------
Matrix-unit indices are 1-based on the whole public surface and 0-based
only inside the arithmetic.  The Kronecker product fixes the lexicographic
composition of indices: the unit E_{jk} of M_{ab} corresponds to
E_{j'k'} (x) E_{j''k''} in M_a (x) M_b with

    j = b*(j' - 1) + j'',        k = b*(k' - 1) + k''.

:func:`coproduct_phi` splits indices with this rule factor by factor, and
the dense oracle :func:`~uhfkron.sweeps.to_dense` places each term at the
row-major flattening of its multi-indices, which is where ``numpy.kron``
of its unit factors puts it, so the two conventions agree by
construction.  The codomain of the
coproduct is kept as an element over the concatenated signature, first
block before second.

Representation
--------------
An element stores its T terms as arrays: ``rows`` and ``cols`` (int64,
shape (T, n), 1-based) and ``coeff`` (complex, shape (T,)).  Slot
relabellers (the coproduct maps, ``sweeps.insert_identity_slot``, tagged
unit chunks) write one slot-major block, a row per slot with the terms'
rows then columns, and return (T, n) views of it: no consumer may assume
row-major order.  Canonical
form has one term per index, in order of first occurrence, with the
coefficients of repeated indices summed in input order starting from
``0j`` (so a ``-0.0`` part becomes ``+0.0``) and the terms whose
modulus is not above ``COEFF_PRUNE_TOL`` dropped: moduli at or below it,
and ``nan`` ones.  The modulus is ``hypot``'s; :func:`_kept` reads the
faster ``numpy.abs`` and asks ``hypot`` only near the tolerance and for
``nan``.  That is what merging into a dict did, term order
included; :func:`~uhfkron.states.state_evaluate` sums in term order, so
its bits depend on it.

Sums, products and the constructor merge on one int64 key per term
(:func:`_merged`), never on a ``row*D + col`` that overflows for big
stages.  Each operand's row and column multi-indices get mixed-radix keys
with a bound, R for rows and C for columns, from one :func:`_lex_keys`
call over the operands' own index arrays, which are not copied into one
block.  The term key is ``row_key*C + col_key``; a product
pair (i, j) has ``self_row_key[i]*C + other_col_key[j]``, so the
O(T + T') operand keys are computed once, not per pair.  Where R*C
reaches 2**63 the operand keys are first replaced by their ranks, below
the number of terms, so the key still fits (:func:`_pair_keys`).  The
merge sorts one packed key ``key << s | position`` per term (``s`` the
bit length of the term count, ranked the same way where it would not
fit), so equal keys come out in input order, and returns the positions
of the terms it keeps; only those terms' index rows are gathered, by
``take`` over int64 positions.  The product join ranks the inner and
head keys in one sort and counts the heads per rank, so no binary search
runs per term.  The constructor reads all its terms at once
(:func:`_read_terms`) and reads term by term only to name the first bad
one.  Coefficient products use the float formula of Python's complex
``*`` (:func:`_cmul`), because numpy's vectorized complex multiply may
fuse a product and a sum and round differently.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import ItemsView
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    COMPARE_TOL,
    DENSE_DIM_GUARD,
    IndexRangeError,
    ResourceGuardError,
    SignatureError,
    UhfError,
    ValidationError,
    _entries,
    _finite,
    _guard,
    _integers,
)

__all__ = [
    "COEFF_PRUNE_TOL",
    "COMPARE_TOL",
    "DENSE_DIM_GUARD",
    "Signature",
    "MatrixUnitIndex",
    "AlgebraElement",
    "as_signature",
    "matrix_unit",
    "identity",
    "zero",
    "elem_tensor",
    "coproduct_phi",
]

# Coefficients at or below this magnitude are dropped from canonical form.
COEFF_PRUNE_TOL = 1e-14
# Factor dimensions must stay below this, so that indices fit int64.
_MAX_FACTOR_DIM = 2 ** 62
# Index keys and their bounds stay below this (the int64 range).
_KEY_BOUND = 2 ** 63
# Moduli from numpy.abs in this band around COEFF_PRUNE_TOL (2**-40 of it
# each way, thousands of ulp) are decided by hypot (see _kept).
_PRUNE_BAND = (COEFF_PRUNE_TOL * (1 - 2 ** -40),
               COEFF_PRUNE_TOL * (1 + 2 ** -40))
# What reading a malformed term may raise (see _term_error).
_READ_ERRORS = (TypeError, ValueError, LookupError, OverflowError)


def _complex_array(value, what: str) -> np.ndarray:
    # value as a complex array, else ValidationError "<what> is not an array
    # of complex numbers" (a string entry, ragged rows, an int past float)
    try:
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{what} is not an array of complex numbers") from None


def _guard_units(what: str, per_level: int, level: int):
    """Refuse to check more than DENSE_DIM_GUARD**2 units.

    The count is ``per_level**level``; it is built one level at a time, so
    a huge level is refused without computing the power.  Non-positive
    levels and bad dimensions are left to the caller's own validation.
    """
    cap = DENSE_DIM_GUARD ** 2
    count = 1
    for _ in range(level):
        count *= per_level
        if count > cap:
            raise ResourceGuardError(
                f"{what} at level {level} would check more than {cap} "
                f"units (guard {DENSE_DIM_GUARD}**2)"
            )
        if count < 2:
            return


@dataclass(frozen=True)
class Signature:
    """Ordered factor dimensions (a_1, ..., a_n) of a stage.

    Each dimension is an integer (``operator.index``: ints, bools and
    numpy integers, nothing truncated), at least 2 and below 2**62
    (indices are int64).
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _integers(_entries(self.dims, SignatureError, "signature"),
                         SignatureError, "factor dimension", " at position {}",
                         low=2)
        if not dims:
            raise SignatureError("signature must have at least one factor")
        if max(dims) >= _MAX_FACTOR_DIM:
            pos, d = next((pos, d) for pos, d in enumerate(dims, start=1)
                          if d >= _MAX_FACTOR_DIM)
            raise SignatureError(
                f"factor dimension {d} at position {pos} is >= 2**62")
        object.__setattr__(self, "dims", dims)

    @property
    def level(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        """Dimension of the stage as one matrix algebra, prod(a_i)."""
        out = 1
        for d in self.dims:
            out *= d
        return out

    def concat(self, other) -> "Signature":
        return Signature(self.dims + as_signature(other).dims)

    def product(self, other) -> "Signature":
        """Entrywise product (a_1*b_1, ..., a_n*b_n); levels must match."""
        other = as_signature(other)
        if self.level != other.level:
            raise SignatureError(
                f"levels differ: {self.level} vs {other.level}"
            )
        return Signature(tuple(a * b for a, b in zip(self.dims, other.dims)))

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)


def as_signature(sig) -> Signature:
    """Coerce a Signature, an int, or an iterable of ints to a Signature."""
    if isinstance(sig, Signature):
        return sig
    if isinstance(sig, numbers.Integral):
        return Signature((int(sig),))
    return Signature(sig)


class MatrixUnitIndex(NamedTuple):
    """Row/column multi-indices (1-based) of one elementary tensor of units."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _index_entries(value) -> tuple:
    # the entries of a multi-index, or the one index at level 1
    try:
        return tuple(value)
    except TypeError:
        return (value,)


def _as_multi_index(value, side: str) -> tuple[int, ...]:
    # a multi-index, or one index at level 1; each entry an integer
    # (operator.index: ints, bools and numpy integers, nothing truncated)
    return _integers(_index_entries(value), IndexRangeError,
                     f"{side} index", " at factor {}")


def _check_index(sig: Signature, rows,
                 cols) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # the pair (rows, cols) of int multi-indices, each entry in 1..dim of
    # its factor, else IndexRangeError naming the first bad factor, its
    # row before its column
    dims = sig.dims
    # the common case in one pass: tuples of ints, or one int each at
    # level 1, all in range (int.__le__ refuses any other entry); all else
    # is read entry by entry below
    j, k = (((rows,), (cols,)) if type(rows) is int is type(cols)
            else (rows, cols))
    try:
        if (type(j) is tuple is type(k) and len(j) == len(k) == len(dims)
                and all(map(int.__le__, j, dims))
                and all(map(int.__le__, k, dims)) and min(j + k) >= 1):
            return j, k
    except TypeError:
        pass
    rows = _as_multi_index(rows, "row")
    cols = _as_multi_index(cols, "column")
    if len(rows) != len(dims) or len(cols) != len(dims):
        raise IndexRangeError(
            f"index length {len(rows)}/{len(cols)} does not match level {sig.level}"
        )
    for pos, (j, k, d) in enumerate(zip(rows, cols, dims), start=1):
        if not 1 <= j <= d:
            raise IndexRangeError(
                f"row index {j} exceeds dimension {d} at factor {pos}"
            )
        if not 1 <= k <= d:
            raise IndexRangeError(
                f"column index {k} exceeds dimension {d} at factor {pos}"
            )
    return rows, cols


def _moduli(c: np.ndarray) -> np.ndarray:
    # the modulus of every entry: hypot of the parts, inf past the largest float
    with np.errstate(over="ignore", invalid="ignore"):
        return np.hypot(c.real, c.imag)


def _cmul(a, b) -> np.ndarray:
    """``a * b`` entrywise, rounded as Python's complex ``*`` rounds it.

    Each of ``ar*br``, ``ai*bi``, ``ar*bi``, ``ai*br`` is rounded before the
    sum; numpy's vectorized complex multiply may fuse them (FMA) and differ
    in the last bit.  The caller silences overflow and invalid warnings.
    """
    return _complex(*_cmul_parts(a.real, a.imag, b.real, b.imag))


def _cmul_parts(ar, ai, br, bi) -> tuple:
    # the real and imaginary parts of (ar + i ai)(br + i bi) as _cmul
    # rounds them; the caller silences overflow and invalid warnings
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re, im) -> np.ndarray:
    # the complex array with these parts, bit for bit
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _lex_keys(parts, radices) -> tuple[np.ndarray, int]:
    """One int64 key per row of the arrays ``parts`` (each of shape
    (T_p, m), column ``c`` holding values in ``0..radices[c]-1``), the
    rows of all parts in part order, and a bound the keys stay below:
    equal rows get equal keys, and keys sort as the rows sort
    lexicographically, across the parts.

    Runs of columns whose radices multiply to less than 2**63 are read as
    one mixed-radix number each, part by part into one array (the parts
    are not copied into one block), and the runs are joined by
    :func:`_pair_keys` over all the parts at once, which falls back to
    ranks among all their rows where two runs do not fit one key.
    """
    ends = list(accumulate(map(len, parts), initial=0))
    key = bound = None
    for start, stop, weights, size in _key_runs(tuple(radices)):
        run = np.empty(ends[-1], dtype=np.int64)
        for part, lo, hi in zip(parts, ends, ends[1:]):
            np.matmul(part[:, start:stop], weights, out=run[lo:hi])
        if key is None:
            key, bound = run, size
        else:
            key, bound = _pair_keys((key, bound), (run, size))
    return key, bound


@lru_cache(maxsize=256)
def _key_runs(radices: tuple) -> tuple:
    # the runs of _lex_keys: (start, stop, mixed-radix weights, bound)
    runs, start = [], 0
    while start < len(radices):
        stop, size = start, 1
        while stop < len(radices) and size * radices[stop] < _KEY_BOUND:
            size *= radices[stop]
            stop += 1
        weights = np.array([math.prod(radices[i + 1:stop])
                            for i in range(start, stop)], dtype=np.int64)
        weights.setflags(write=False)
        runs.append((start, stop, weights, size))
        start = stop
    return tuple(runs)


def _pair_keys(high, low, i=slice(None),
               j=slice(None)) -> tuple[np.ndarray, int]:
    """``hk[i]*lb + lk[j]`` for ``high = (hk, hb)`` and ``low = (lk, lb)``,
    keys with the bounds they stay below, and the new bound ``hb*lb``.

    Pairs sort by high key, then low key.  Where ``hb*lb`` reaches 2**63,
    ``hk`` (and if need be ``lk``) is first replaced by its ranks, so the
    bound drops to the number of distinct keys and the result fits int64.
    The keys are ranked before they are gathered, so at O(len(hk) +
    len(lk)) cost whatever the number of pairs.
    """
    (hk, hb), (lk, lb) = high, low
    if hb * lb >= _KEY_BOUND:
        hk, hb = _ranks(hk)
    if hb * lb >= _KEY_BOUND:
        lk, lb = _ranks(lk)
    key = _at(hk * lb, i)
    key += _at(lk, j)
    return key, hb * lb


def _ranks(a: np.ndarray) -> tuple[np.ndarray, int]:
    # each entry's rank among the distinct entries, and their number
    order = a.argsort()
    ranks = a.take(order)
    rank = _run_starts(ranks).astype(np.int64)
    rank[:1] = 0  # the first run has rank 0
    ranks[order] = rank.cumsum(out=rank)
    return ranks, (int(rank[-1]) + 1 if len(a) else 0)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    # where a run of equal keys starts in a sorted array
    new = np.empty(len(sorted_keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return new


def _index_radices(sig: Signature) -> tuple[int, ...]:
    # radices of the index columns of a stage: 1-based values
    return tuple(d + 1 for d in sig.dims)


def _term_keys(sig: Signature, parts) -> tuple[np.ndarray, int]:
    # one key per term and its bound, for the T terms whose rows are the
    # first T rows of the index arrays ``parts`` (in order) and whose
    # columns are the last T: rows' key, then cols' key
    keys, bound = _lex_keys(parts, _index_radices(sig))
    half = len(keys) // 2
    return _pair_keys((keys[:half], bound), (keys[half:], bound))


def _index_keys(*elements) -> tuple[np.ndarray, int]:
    # _term_keys of the elements' terms, one element after another, so
    # that keys compare across them; and their bound
    return _term_keys(elements[0].sig, [x.rows for x in elements]
                      + [x.cols for x in elements])


def _element(sig: Signature, rows, cols, coeff) -> "AlgebraElement":
    """An element from arrays already in canonical form (not checked)."""
    rows.setflags(write=False)
    cols.setflags(write=False)
    coeff.setflags(write=False)
    return _wrap(sig, rows, cols, coeff)


def _wrap(sig: Signature, rows, cols, coeff) -> "AlgebraElement":
    # an element holding read-only arrays already in canonical form
    x = object.__new__(AlgebraElement)
    put = object.__setattr__
    put(x, "sig", sig)
    put(x, "rows", rows)
    put(x, "cols", cols)
    put(x, "coeff", coeff)
    return x


def _kept(coeff) -> tuple:
    """``c + 0j`` (in place: ``c`` is new; a ``-0.0`` part becomes
    ``+0.0``), and the terms whose modulus is ``> COEFF_PRUNE_TOL`` (not a
    ``nan`` one): ``slice(None)`` if all, else their int64 positions; with
    their coefficients.  The caller silences warnings.

    The modulus is :func:`_moduli`'s.  ``numpy.abs`` is read first, as it
    is several times faster; it differs from ``hypot`` by a few ulp and
    may read an ``(inf, nan)`` part as ``nan``, so the terms whose
    ``numpy.abs`` is ``nan`` or within ``_PRUNE_BAND`` of the tolerance
    take :func:`_moduli`'s decision.
    """
    coeff += 0j
    modulus = np.abs(coeff)
    keep = modulus > _PRUNE_BAND[1]
    if np.count_nonzero(keep) == len(keep):
        return slice(None), coeff
    unsure = (~(keep | (modulus < _PRUNE_BAND[0]))).nonzero()[0]
    if len(unsure):
        keep[unsure] = _moduli(coeff.take(unsure)) > COEFF_PRUNE_TOL
    keep = keep.nonzero()[0]
    return keep, coeff.take(keep)


def _at(a, keep):
    # a's rows at ``keep``, a slice (all of a) or int64 positions (by take)
    return a if isinstance(keep, slice) else a.take(keep, axis=0)


def _pruned(sig: Signature, rows, cols, coeff) -> "AlgebraElement":
    # canonical form of terms with distinct indices (see _kept)
    keep, coeff = _kept(coeff)
    return _element(sig, _at(rows, keep), _at(cols, keep), coeff)


def _listed(sig: Signature, rows: list, cols: list,
            coeff: list) -> "AlgebraElement":
    # canonical form (see _merged) of terms given as lists of multi-index
    # tuples, already range-checked, and of complex coefficients
    return _summed(sig, np.array(rows + cols, dtype=np.int64).reshape(
        2 * len(coeff), sig.level), np.array(coeff, dtype=complex))


def _summed(sig: Signature, index, coeff) -> "AlgebraElement":
    # canonical form (see _merged) of the terms whose rows are index[:T]
    # and whose columns are index[T:], T = len(coeff)
    with np.errstate(over="ignore", invalid="ignore"):
        keep, total = _merged(_term_keys(sig, [index]), coeff)
    rows, cols = index[:len(coeff)], index[len(coeff):]
    return _element(sig, _at(rows, keep), _at(cols, keep), total)


def _merged(key, coeff) -> tuple:
    """Canonical form of terms whose indices may repeat, given ``key`` =
    (one int64 key per term, their bound), equal keys for equal indices,
    as :func:`_term_keys` and :func:`_pair_keys` make them.

    One term per index, in order of first occurrence; a repeated index's
    coefficients are added in input order onto ``0j``, as merging into a
    dict does (``numpy.add.at`` adds sequentially, onto the first one:
    with :func:`_kept`'s ``+ 0j``, the same bits); then pruned.  Returns
    the input positions of the terms kept, in that order (``slice(None)``
    or int64 positions), and their coefficients; the caller gathers the
    index rows of those positions only, and silences warnings.

    One ``numpy.sort`` orders the packed keys ``key << s | position``
    (``s`` the bit length of the term count, joined by :func:`_pair_keys`,
    so keys are ranked first where the packed bound reaches 2**63): equal
    keys come out in input order, so each index's first position is the
    first of its run.  The run starts are one ``nonzero``, an index's
    place in the output a scatter of ``arange`` over the first positions.
    """
    shift = len(coeff).bit_length()
    packed, _ = _pair_keys(key, (np.arange(len(coeff)), 1 << shift))
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift  # the sorted keys
    new = _run_starts(packed)
    starts = new.nonzero()[0]
    if len(starts) == len(coeff):  # no index repeats
        return _kept(coeff)
    first = order.take(starts)  # per index, in key order
    at = np.zeros(len(coeff), dtype=bool)
    at[first] = True
    at = at.nonzero()[0]  # per index, in output order
    packed[at] = np.arange(len(at))  # a first position's output place
    # the p-th repeated term in key order is in run repeat[p] - p - 1
    repeat = (~new).nonzero()[0]
    run = repeat - np.arange(1, len(repeat) + 1)
    total = coeff.take(at)
    np.add.at(total, packed.take(first).take(run),
              coeff.take(order.take(repeat)))
    keep, total = _kept(total)
    return _at(at, keep), total


def _read_terms(sig: Signature, entries) -> "AlgebraElement":
    """Canonical form (see :func:`_merged`) of ``(index, coefficient)``
    pairs, all read at once: the indices by ``operator.index`` into one
    array, range-checked by array comparisons, the coefficients by
    ``complex``.  It accepts what :func:`_term_error` accepts term by term;
    where the bulk read fails, that runs to raise the error of the first
    bad term.
    """
    indices, coeffs = [], []
    try:
        for idx, c in entries:
            indices.append(idx)
            coeffs.append(c)
        sides = [*map(itemgetter(0), indices), *map(itemgetter(1), indices)]
        try:
            sides = list(map(tuple, sides))
        except TypeError:  # an index at level 1 may be one integer
            sides = list(map(_index_entries, sides))
        if set(map(len, sides)) - {sig.level}:
            raise ValueError("an index length differs from the level")
        index = np.fromiter(map(operator.index, chain.from_iterable(sides)),
                            np.int64, len(sides) * sig.level)
        index = index.reshape(len(sides), sig.level)
        if not ((index >= 1) & (index <= sig.dims)).all():
            raise ValueError("an index is out of range")
        coeff = np.fromiter(map(complex, coeffs), complex, len(coeffs))
    except _READ_ERRORS:
        _term_error(sig, entries)
        raise
    return _summed(sig, index, coeff)


def _term_error(sig: Signature, entries):
    # raise the error of the first term that does not read as a pair
    # (index, coefficient): ValidationError naming its position, or
    # _check_index's IndexRangeError
    for pos, term in enumerate(entries, start=1):
        try:
            idx, c = term
            _check_index(sig, idx[0], idx[1])
        except UhfError:
            raise
        except _READ_ERRORS:
            raise ValidationError(
                f"term {pos} is not a pair (index, coefficient) with an "
                f"index (rows, cols)") from None
        try:
            complex(c)
        except _READ_ERRORS:
            raise ValidationError(
                f"coefficient of term {pos} ({type(c).__name__}) does not "
                f"convert to a complex number") from None


class AlgebraElement:
    """Sparse element of a tensor stage, kept in canonical form.

    ``rows``/``cols`` (int64, shape (T, n), 1-based) and ``coeff``
    (complex, shape (T,)) hold the T terms as read-only arrays; see the
    module docstring for the canonical form.  The constructor takes
    ``None`` (the zero element), a mapping or an iterable of
    ``(index, coefficient)`` pairs, an index being a ``(rows, cols)`` pair
    of multi-indices, each index an integer in 1..a_i (else
    :class:`IndexRangeError`, as :func:`matrix_unit` raises it); a term
    that is no such pair, or whose coefficient is no complex number,
    raises :class:`ValidationError` naming its position.  All terms are
    read at once (:func:`_read_terms`).  Every element is range-checked,
    so every operation may read its indices unchecked.  Instances are
    immutable (copies and pickles rebuild from the arrays); all operations
    return new elements.  ``*`` is the algebra product (or
    scalar scaling), ``+``/``-`` the linear structure, :meth:`adjoint` the
    *-operation.
    """

    __slots__ = ("sig", "rows", "cols", "coeff")

    def __init__(self, sig, terms=None):
        sig = as_signature(sig)
        items = (() if terms is None else
                 terms.items() if hasattr(terms, "items") else terms)
        if not isinstance(items, ItemsView):  # a view reads again alike
            items = _entries(items, ValidationError, "terms")
        x = _read_terms(sig, items)
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(x, name))

    def __reduce__(self):
        # copies and pickles rebuild from the canonical arrays, unchecked
        return _element, (self.sig, self.rows, self.cols, self.coeff)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def terms(self):
        """Read-only map MatrixUnitIndex -> coefficient, in term order
        (built on each access)."""
        return MappingProxyType(dict(self._items()))

    @property
    def is_zero(self) -> bool:
        return not len(self.coeff)

    def __len__(self):
        return len(self.coeff)

    def sorted_terms(self) -> list[tuple[MatrixUnitIndex, complex]]:
        """Terms sorted lexicographically by (rows, cols)."""
        return list(self._items(np.argsort(_index_keys(self)[0])))

    def _items(self, order=slice(None)):
        # (MatrixUnitIndex, complex) pairs of Python objects; each distinct
        # multi-index becomes one tuple, shared by all terms that have it
        intern = {}.setdefault
        keys = [MatrixUnitIndex(intern(r := tuple(j), r),
                                intern(c := tuple(k), c))
                for j, k in zip(_at(self.rows, order).tolist(),
                                _at(self.cols, order).tolist())]
        return zip(keys, _at(self.coeff, order).tolist())

    def _require_same_sig(self, other: "AlgebraElement"):
        if self.sig != other.sig:
            raise SignatureError(
                f"signature mismatch: {self.sig.dims} vs {other.sig.dims}"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_sig(other)
        return _summed(self.sig, np.concatenate(
            [self.rows, other.rows, self.cols, other.cols]),
            np.concatenate([self.coeff, other.coeff]))

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same_sig(other)
            # one key per index row of self.rows, self.cols, other.rows and
            # other.cols, in that order, comparable across all four
            keys, bound = _lex_keys(
                [self.rows, self.cols, other.rows, other.cols],
                _index_radices(self.sig))
            t, u = len(self), 2 * len(self) + len(other)
            # every pair (i, j) with self.cols[i] == other.rows[j], i-major
            # and j in other's term order, as a loop over the terms makes
            # them: one sort ranks the inner keys and the head keys together
            rank, distinct = _ranks(keys[t:u])
            heads = rank[t:]
            by_head = heads.argsort(kind="stable")
            per_rank = np.bincount(heads, minlength=distinct)
            count = per_rank.take(rank[:t])
            i = np.arange(t).repeat(count)
            # pair p of term i is its (p - first pair of i)-th head match;
            # in by_head, term i's heads end at the end of its rank's run
            j = per_rank.cumsum().take(rank[:t])
            j = (j - count.cumsum()).repeat(count)
            j += np.arange(len(j))
            j = by_head.take(j)
            # the product term of (i, j) has self.rows[i], other.cols[j]
            with np.errstate(over="ignore", invalid="ignore"):
                keep, coeff = _merged(
                    _pair_keys((keys[:t], bound), (keys[u:], bound), i, j),
                    _cmul(self.coeff.take(i), other.coeff.take(j)))
            return _element(self.sig, self.rows.take(_at(i, keep), axis=0),
                            other.cols.take(_at(j, keep), axis=0), coeff)
        if isinstance(other, numbers.Number):
            with np.errstate(over="ignore", invalid="ignore"):
                return _pruned(self.sig, self.rows, self.cols,
                               _cmul(complex(other), self.coeff))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self * other
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        """The *-operation: swap rows and columns, conjugate coefficients."""
        return _element(self.sig, self.cols, self.rows,
                        np.conjugate(self.coeff) + 0j)

    def allclose(self, other: "AlgebraElement", tol: float = COMPARE_TOL) -> bool:
        """Every index's coefficients (0 where absent) differ by a modulus
        ``<= tol``; a modulus past the largest float counts as ``inf``.
        ``tol`` is read as a suite's tolerance is (a finite number >= 0,
        else ValidationError)."""
        tol = _finite(tol, "tolerance")
        if self.sig != other.sig:
            return False
        _, slot = np.unique(_index_keys(self, other)[0],
                            return_inverse=True)
        diff = np.zeros(slot.max() + 1 if len(slot) else 0, dtype=complex)
        diff[slot[:len(self)]] = self.coeff
        with np.errstate(over="ignore", invalid="ignore"):
            diff[slot[len(self):]] -= other.coeff
        return bool(np.all(_moduli(diff) <= tol))

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self is other:  # as dict equality: an (inf, nan) part equals itself
            return True
        if self.sig != other.sig or len(self) != len(other):
            return False
        keys, _ = _index_keys(self, other)
        mine, theirs = keys[:len(self)], keys[len(self):]
        a, b = np.argsort(mine), np.argsort(theirs)
        return bool(np.array_equal(mine.take(a), theirs.take(b))
                    and np.all(self.coeff.take(a) == other.coeff.take(b)))

    __hash__ = None

    def __repr__(self):
        return (f"AlgebraElement(sig={self.sig.dims}, "
                f"terms={len(self)})")


def matrix_unit(sig, rows, cols) -> AlgebraElement:
    """Elementary tensor of matrix units with coefficient one.

    ``rows``/``cols`` are 1-based multi-indices (ints allowed at level 1).
    Raises :class:`IndexRangeError` naming the offending factor position.
    """
    sig = as_signature(sig)
    # one (2, n) block, read-only once; its row views are too
    index = np.array(_check_index(sig, rows, cols), dtype=np.int64)
    index.setflags(write=False)
    return _wrap(sig, index[:1], index[1:], _UNIT_COEFF)


# The coefficient array of every matrix_unit, shared (it is read-only).
_UNIT_COEFF = np.ones(1, dtype=complex)
_UNIT_COEFF.setflags(write=False)


def _grid(dims, flat) -> np.ndarray:
    # the 1-based multi-indices of row-major flat indices, shape (N, n)
    return np.stack(np.unravel_index(flat, dims), axis=1) + 1


def identity(sig) -> AlgebraElement:
    """The unit of the stage: sum of all diagonal elementary tensors.
    Refuses more than ``DENSE_DIM_GUARD**2`` terms."""
    sig = as_signature(sig)
    _guard("identity term count", sig.total_dim, DENSE_DIM_GUARD ** 2)
    diag = _grid(sig.dims, np.arange(sig.total_dim))
    return _element(sig, diag, diag.copy(),
                    np.ones(len(diag), dtype=complex))


def zero(sig) -> AlgebraElement:
    return AlgebraElement(as_signature(sig))


def elem_tensor(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Tensor product over the concatenated signature."""
    nx, ny = len(x), len(y)
    rows, cols = (
        np.concatenate([np.repeat(a, ny, axis=0), np.tile(b, (nx, 1))], axis=1)
        for a, b in ((x.rows, y.rows), (x.cols, y.cols)))
    with np.errstate(over="ignore", invalid="ignore"):
        return _pruned(x.sig.concat(y.sig), rows, cols,
                       _cmul(np.repeat(x.coeff, ny), np.tile(y.coeff, nx)))


def _block_element(sig: Signature, block, coeff) -> AlgebraElement:
    # the element whose rows and cols are the (T, n) views of a slot block
    return _element(sig, block[:, :len(coeff)].T, block[:, len(coeff):].T,
                    coeff)


def _split_slots(x: AlgebraElement, start: int, b: tuple[int, ...],
                 sig: Signature) -> AlgebraElement:
    """Split slot ``start + i`` of ``x`` (dimension a_i*b_i) for every i:
    with h = (j - 1) // b_i, j' = h + 1 and j'' = j - h*b_i, so that
    j = b_i*(j' - 1) + j''.  The j' take slots ``start..``, the j'' follow
    them, the other slots keep their places; ``sig`` is the result's.
    Coefficients and term order are kept: the split is injective, so the
    result is canonical as it stands.
    """
    # the slots up to ``stop`` and after it copied around the rows of the
    # j'', then split in place (numpy divides fast by a scalar: per row)
    t, stop = len(x), start + len(b)
    block = np.empty((sig.level, 2 * t), dtype=np.int64)
    np.concatenate([x.rows[:, :stop].T, x.cols[:, :stop].T], axis=1,
                   out=block[:stop])
    np.concatenate([x.rows[:, stop:].T, x.cols[:, stop:].T], axis=1,
                   out=block[stop + len(b):])
    high, low = block[start:stop], block[stop:stop + len(b)]
    high -= 1
    for h, l, bi in zip(high, low, b):
        h //= bi
        np.multiply(h, -bi, out=l)
    low[:, :t] += x.rows[:, start:stop].T
    low[:, t:] += x.cols[:, start:stop].T
    high += 1
    return _block_element(sig, block, x.coeff)


def coproduct_phi(x: AlgebraElement, a, b) -> AlgebraElement:
    """Kronecker coproduct: recode a stage over (a_i*b_i) as first-block (x)
    second-block over the concatenated signature (a_1..a_n, b_1..b_n).

    Each index j_i in {1, ..., a_i*b_i} splits as j_i = b_i*(j'_i - 1) + j''_i;
    the output term carries rows (j'_1..j'_n, j''_1..j''_n) and likewise for
    columns, with the coefficient unchanged and the terms in their order.
    This is a *-isomorphism onto the concatenated stage, inverse to the
    factorwise Kronecker product; exact int64 arithmetic, one floor
    division per slot.
    """
    a = as_signature(a)
    b = as_signature(b)
    if x.sig != a.product(b):
        raise SignatureError(
            f"signature {x.sig.dims} is not the entrywise product of "
            f"{a.dims} and {b.dims}"
        )
    return _split_slots(x, 0, b.dims, a.concat(b))
