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
:func:`to_dense` places each term at the row-major flattening of its
multi-indices, which is where ``numpy.kron`` of its unit factors puts it,
so the two conventions agree by construction.  The codomain of the
coproduct is kept as an element over the concatenated signature, first
block before second.

Representation
--------------
An element stores its T terms as arrays: ``rows`` and ``cols`` (int64,
shape (T, n), 1-based) and ``coeff`` (complex, shape (T,)).  Canonical
form has one term per index, in order of first occurrence, with the
coefficients of repeated indices summed in input order starting from
``0j`` (so a ``-0.0`` part becomes ``+0.0``) and moduli
``<= COEFF_PRUNE_TOL`` dropped.  That is what merging into a dict did,
term order included; :func:`~uhfkron.states.state_evaluate` sums in
term order, so its bits depend on it.  Index keys are packed into one int64
per term (:func:`_lex_keys`), never into a ``row*D + col`` that
overflows for big stages.  Coefficient products use the float formula of
Python's complex ``*`` (:func:`_cmul`), because numpy's vectorized
complex multiply may fuse a product and a sum and round differently.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, NamedTuple

import numpy as np

from .errors import IndexRangeError, ResourceGuardError, SignatureError

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
    "embed_psi",
    "insert_identity_slot",
    "coproduct_phi",
    "coproduct_phi_block",
    "product_phi_inverse",
    "kron_box",
    "to_dense",
    "from_dense",
    "block_permutation",
    "all_matrix_units",
    "random_element",
]

# Coefficients at or below this magnitude are dropped from canonical form.
COEFF_PRUNE_TOL = 1e-14
# Default tolerance for numerical comparisons of coefficients/entries.
COMPARE_TOL = 1e-12
# Largest total dimension a dense materialization will allocate.
DENSE_DIM_GUARD = 4096
# Factor dimensions must stay below this, so that indices fit int64.
_MAX_FACTOR_DIM = 2 ** 62
# Index keys stay below this (the int64 range).
_KEY_BOUND = 2 ** 63
# Image terms one tagged chunk of the unit grid may produce (memory cap).
_TAG_CHUNK_TERMS = 1 << 12


@dataclass(frozen=True)
class Signature:
    """Ordered factor dimensions (a_1, ..., a_n) of a stage.

    Each dimension is at least 2 and below 2**62 (indices are int64).
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise SignatureError("signature must have at least one factor")
        for pos, d in enumerate(dims, start=1):
            if d < 2:
                raise SignatureError(
                    f"factor dimension {d} at position {pos} is < 2"
                )
            if d >= _MAX_FACTOR_DIM:
                raise SignatureError(
                    f"factor dimension {d} at position {pos} is >= 2**62"
                )
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
    return Signature(tuple(sig))


class MatrixUnitIndex(NamedTuple):
    """Row/column multi-indices (1-based) of one elementary tensor of units."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]


def _as_multi_index(value) -> tuple[int, ...]:
    if isinstance(value, numbers.Integral):
        return (int(value),)
    return tuple(int(v) for v in value)


def _check_index(sig: Signature, rows, cols) -> MatrixUnitIndex:
    rows = _as_multi_index(rows)
    cols = _as_multi_index(cols)
    if len(rows) != sig.level or len(cols) != sig.level:
        raise IndexRangeError(
            f"index length {len(rows)}/{len(cols)} does not match level {sig.level}"
        )
    for pos, (j, k, d) in enumerate(zip(rows, cols, sig.dims), start=1):
        if not 1 <= j <= d:
            raise IndexRangeError(
                f"row index {j} exceeds dimension {d} at factor {pos}"
            )
        if not 1 <= k <= d:
            raise IndexRangeError(
                f"column index {k} exceeds dimension {d} at factor {pos}"
            )
    return MatrixUnitIndex(rows, cols)


def _modulus(c: complex) -> float:
    """``abs(c)``, but ``inf`` where finite parts give a modulus past the
    largest float (``abs`` raises ``OverflowError`` there)."""
    try:
        return abs(c)
    except OverflowError:
        return math.hypot(c.real, c.imag)


def _moduli(c: np.ndarray) -> np.ndarray:
    # _modulus of every entry: hypot of the parts, inf past the largest float
    with np.errstate(over="ignore", invalid="ignore"):
        return np.hypot(c.real, c.imag)


def _cmul(a, b) -> np.ndarray:
    """``a * b`` entrywise, rounded as Python's complex ``*`` rounds it.

    Each of ``ar*br``, ``ai*bi``, ``ar*bi``, ``ai*br`` is rounded before the
    sum; numpy's vectorized complex multiply may fuse them (FMA) and differ
    in the last bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        re = a.real * b.real - a.imag * b.imag
        im = a.real * b.imag + a.imag * b.real
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _lex_keys(columns: np.ndarray, radices) -> np.ndarray:
    """One int64 key per row of ``columns`` (shape (T, m), column ``c``
    holding values in ``0..radices[c]-1``): equal rows get equal keys, and
    keys sort as the rows sort lexicographically.

    Runs of columns whose radices multiply to at most 2**63 are read as one
    mixed-radix number each; where two runs do not fit one key, the keys so
    far (and if need be the run's) are replaced by their ranks, below T.
    """
    key = bound = None
    start = 0
    while start < len(radices):
        stop, size = start, 1
        while stop < len(radices) and size * radices[stop] <= _KEY_BOUND:
            size *= radices[stop]
            stop += 1
        weights = [math.prod(radices[i + 1:stop]) for i in range(start, stop)]
        run = columns[:, start:stop] @ np.array(weights, dtype=np.int64)
        if key is None:
            key, bound = run, size
        else:
            if bound * size > _KEY_BOUND:
                key, bound = _ranks(key)
            if bound * size > _KEY_BOUND:
                run, size = _ranks(run)
            key = key * size + run
            bound *= size
        start = stop
    return key


def _ranks(a: np.ndarray) -> tuple[np.ndarray, int]:
    # each entry's rank among the distinct entries, and their number
    values, ranks = np.unique(a, return_inverse=True)
    return ranks.astype(np.int64), len(values)


def _index_radices(sig: Signature) -> list[int]:
    # radices of the (rows, cols) columns of an element: 1-based values
    radices = [d + 1 for d in sig.dims]
    return radices + radices


def _index_keys(*elements) -> list[np.ndarray]:
    # _lex_keys of the (rows, cols) of each element, comparable across them
    keys = _lex_keys(
        np.concatenate([np.concatenate([x.rows, x.cols], axis=1)
                        for x in elements]),
        _index_radices(elements[0].sig))
    return np.split(keys, np.cumsum([len(x) for x in elements])[:-1])


def _element(sig: Signature, rows, cols, coeff) -> "AlgebraElement":
    """An element from arrays already in canonical form (not checked)."""
    rows.setflags(write=False)
    cols.setflags(write=False)
    coeff.setflags(write=False)
    x = object.__new__(AlgebraElement)
    put = object.__setattr__
    put(x, "sig", sig)
    put(x, "rows", rows)
    put(x, "cols", cols)
    put(x, "coeff", coeff)
    return x


def _pruned(sig: Signature, rows, cols, coeff) -> "AlgebraElement":
    """Canonical form of terms with distinct indices: ``0j + c`` (a
    ``-0.0`` part becomes ``+0.0``), then moduli ``<= COEFF_PRUNE_TOL``
    dropped."""
    coeff = coeff + 0j
    keep = _moduli(coeff) > COEFF_PRUNE_TOL
    if keep.all():
        return _element(sig, rows, cols, coeff)
    return _element(sig, rows[keep], cols[keep], coeff[keep])


def _merged(sig: Signature, rows, cols, coeff) -> "AlgebraElement":
    """Canonical form of terms whose indices may repeat.

    One term per index, in order of first occurrence; a repeated index's
    coefficients are added in input order onto ``0j`` (``numpy.add.at``
    adds sequentially), as merging into a dict does; then pruned.
    """
    key = _lex_keys(np.concatenate([rows, cols], axis=1), _index_radices(sig))
    order = np.argsort(key)
    sorted_key = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    if len(starts) == len(key):  # no index repeats
        return _pruned(sig, rows, cols, coeff)
    first = np.minimum.reduceat(order, starts)  # per index, in key order
    is_first = np.zeros(len(key), dtype=bool)
    is_first[first] = True
    slot = (np.cumsum(is_first) - 1)[first]  # its place in the output
    target = np.empty(len(key), dtype=np.int64)
    target[order] = slot[np.cumsum(new) - 1]
    total = np.zeros(len(first), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(total, target, coeff)
    keep = np.flatnonzero(is_first)
    return _pruned(sig, rows[keep], cols[keep], total)


class AlgebraElement:
    """Sparse element of a tensor stage, kept in canonical form.

    ``rows``/``cols`` (int64, shape (T, n), 1-based) and ``coeff``
    (complex, shape (T,)) hold the T terms as read-only arrays; see the
    module docstring for the canonical form.  The constructor takes a
    mapping or an iterable of ``(index, coefficient)`` pairs, an index being
    a ``(rows, cols)`` pair of multi-indices.  Instances are immutable; all
    operations return new elements.  ``*`` is the algebra product (or
    scalar scaling), ``+``/``-`` the linear structure, :meth:`adjoint` the
    *-operation.
    """

    __slots__ = ("sig", "rows", "cols", "coeff")

    def __init__(self, sig, terms=None, *, validate: bool = True):
        sig = as_signature(sig)
        rows, cols, coeff = [], [], []
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for idx, c in items:
                if validate:
                    idx = _check_index(sig, idx[0], idx[1])
                rows.append(idx[0])
                cols.append(idx[1])
                coeff.append(complex(c))
        shape = (len(coeff), sig.level)
        x = _merged(sig, np.array(rows, dtype=np.int64).reshape(shape),
                    np.array(cols, dtype=np.int64).reshape(shape),
                    np.array(coeff, dtype=complex))
        for name in self.__slots__:
            object.__setattr__(self, name, getattr(x, name))

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
                for j, k in zip(self.rows[order].tolist(),
                                self.cols[order].tolist())]
        return zip(keys, self.coeff[order].tolist())

    def _require_same_sig(self, other: "AlgebraElement"):
        if self.sig != other.sig:
            raise SignatureError(
                f"signature mismatch: {self.sig.dims} vs {other.sig.dims}"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_sig(other)
        return _merged(self.sig, np.concatenate([self.rows, other.rows]),
                       np.concatenate([self.cols, other.cols]),
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
            # every pair (i, j) with self.cols[i] == other.rows[j], i-major
            # and j in other's term order, as a loop over the terms makes them
            inner, heads = np.split(
                _lex_keys(np.concatenate([self.cols, other.rows]),
                          _index_radices(self.sig)[:self.sig.level]),
                [len(self)])
            by_head = np.argsort(heads, kind="stable")
            sorted_heads = heads[by_head]
            lo = np.searchsorted(sorted_heads, inner, "left")
            count = np.searchsorted(sorted_heads, inner, "right") - lo
            i = np.repeat(np.arange(len(self)), count)
            step = np.arange(len(i)) - np.repeat(np.cumsum(count) - count,
                                                  count)
            j = by_head[np.repeat(lo, count) + step]
            return _merged(self.sig, self.rows[i], other.cols[j],
                           _cmul(self.coeff[i], other.coeff[j]))
        if isinstance(other, numbers.Number):
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
        ``<= tol``; a modulus past the largest float counts as ``inf``."""
        if self.sig != other.sig:
            return False
        _, slot = np.unique(np.concatenate(_index_keys(self, other)),
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
        mine, theirs = _index_keys(self, other)
        a, b = np.argsort(mine), np.argsort(theirs)
        return bool(np.array_equal(mine[a], theirs[b])
                    and np.all(self.coeff[a] == other.coeff[b]))

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
    index = np.array(_check_index(sig, rows, cols), dtype=np.int64)
    return _element(sig, index[:1], index[1:], _UNIT_COEFF)


# The coefficient array of every matrix_unit, shared (it is read-only).
_UNIT_COEFF = np.ones(1, dtype=complex)
_UNIT_COEFF.setflags(write=False)


def _grid(dims, flat) -> np.ndarray:
    # the 1-based multi-indices of row-major flat indices, shape (N, n)
    return np.stack(np.unravel_index(flat, dims), axis=1) + 1


def identity(sig) -> AlgebraElement:
    """The unit of the stage: sum of all diagonal elementary tensors."""
    sig = as_signature(sig)
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
    coeff = _cmul(np.repeat(x.coeff, ny), np.tile(y.coeff, nx))
    return _pruned(x.sig.concat(y.sig), rows, cols, coeff)


def insert_identity_slot(x: AlgebraElement, position: int, dim: int) -> AlgebraElement:
    """Tensor an identity factor of size ``dim`` into slot ``position``.

    Each term E_{j,k} becomes sum_m E_{j,k} with E^{(dim)}_{mm} spliced in
    at ``position`` (0-based slot index; ``position == level`` appends).
    """
    if dim < 2:
        raise SignatureError(f"inserted dimension {dim} is < 2")
    level = x.sig.level
    if not 0 <= position <= level:
        raise SignatureError(f"slot position {position} outside 0..{level}")
    new_sig = Signature(
        x.sig.dims[:position] + (dim,) + x.sig.dims[position:]
    )
    diag = np.tile(np.arange(1, dim + 1, dtype=np.int64), len(x))
    return _element(
        new_sig,
        np.insert(np.repeat(x.rows, dim, axis=0), position, diag, axis=1),
        np.insert(np.repeat(x.cols, dim, axis=0), position, diag, axis=1),
        np.repeat(x.coeff, dim),
    )


def embed_psi(x: AlgebraElement, next_dim: int) -> AlgebraElement:
    """Unital embedding A -> A (x) I into the stage extended by ``next_dim``."""
    return insert_identity_slot(x, x.sig.level, next_dim)


def _digit_places(dims, radices) -> list[tuple[int, int]]:
    # (slot, stride inside the slot) of each digit; slots span whole digits
    radices = iter(radices)
    places = []
    for slot, dim in enumerate(dims):
        while dim > 1:
            radix = next(radices)
            assert dim % radix == 0, "a slot must span whole digits"
            dim //= radix
            places.append((slot, dim))
    return places


@functools.lru_cache(maxsize=256)
def _digit_plan(in_dims, digits, order, out_dims):
    # per digit in target order: (source slot, stride, radix, target slot,
    # stride), radix None for the top digit of its slot (it needs no
    # modulo); cached because the suites repeat a few shapes many times
    moved = [digits[k] for k in order]
    source = _digit_places(in_dims, digits)
    target = _digit_places(out_dims, moved)
    return tuple(
        (slot, stride, None if stride * radix == in_dims[slot] else radix,
         *place)
        for k, radix, place in zip(order, moved, target)
        for slot, stride in (source[k],)
    )


def _regroup(x: AlgebraElement, digits: tuple[int, ...],
             order: tuple[int, ...],
             out_dims: tuple[int, ...]) -> AlgebraElement:
    """Relabel every row and column multi-index of ``x``, keeping coefficients.

    A multi-index is read as one row-major tensor index and moved the way
    numpy moves it under ``reshape(digits).transpose(order)
    .reshape(out_dims)``; the result lives over ``out_dims``.  Each slot
    of ``x`` and of ``out_dims`` spans whole digits.  The relabelling is
    injective, so the result is canonical as it stands.
    """
    plan = _digit_plan(x.sig.dims, digits, order, out_dims)
    # one row per slot, the terms' rows then their columns, 0-based
    index = np.concatenate([x.rows.T, x.cols.T], axis=1) - 1
    out = np.ones((len(out_dims), index.shape[1]), dtype=np.int64)
    for src, stride, radix, dst, weight in plan:
        digit = index[src]
        if stride != 1:
            digit = digit // stride
        if radix is not None:
            digit = digit % radix
        if weight != 1:
            digit = digit * weight
        out[dst] += digit
    rows, cols = np.split(out.T, 2)
    return _element(Signature(out_dims), rows, cols, x.coeff)


def _interleave(a: Signature, b: Signature) -> tuple[int, ...]:
    # (a_1, b_1, ..., a_n, b_n): the digits of the fused slots a_i*b_i
    return tuple(d for pair in zip(a.dims, b.dims) for d in pair)


def coproduct_phi(x: AlgebraElement, a, b) -> AlgebraElement:
    """Kronecker coproduct: recode a stage over (a_i*b_i) as first-block (x)
    second-block over the concatenated signature (a_1..a_n, b_1..b_n).

    Each index j_i in {1, ..., a_i*b_i} splits as j_i = b_i*(j'_i - 1) + j''_i;
    the output term carries rows (j'_1..j'_n, j''_1..j''_n) and likewise for
    columns, with the coefficient unchanged.  This is a *-isomorphism onto the
    concatenated stage, inverse to the factorwise Kronecker product.
    """
    a = as_signature(a)
    b = as_signature(b)
    if x.sig != a.product(b):
        raise SignatureError(
            f"signature {x.sig.dims} is not the entrywise product of "
            f"{a.dims} and {b.dims}"
        )
    n = a.level
    order = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))
    return _regroup(x, _interleave(a, b), order, a.dims + b.dims)


def coproduct_phi_block(x: AlgebraElement, start: int, count: int,
                        a, b) -> AlgebraElement:
    """Apply the coproduct to slots [start, start+count), leaving the rest.

    The split block comes out in block order: the first-factor slots occupy
    positions start..start+count-1, the second-factor slots follow, and all
    other slots keep their relative places.  Exact on indices.
    """
    a = as_signature(a)
    b = as_signature(b)
    if a.level != count or b.level != count:
        raise SignatureError("factor signatures must match the block length")
    dims = x.sig.dims
    stop = start + count
    if start < 0 or stop > len(dims):
        raise SignatureError(
            f"block [{start}, {stop}) outside slots 0..{len(dims) - 1}"
        )
    for pos, ai, bi in zip(range(start, stop), a.dims, b.dims):
        if dims[pos] != ai * bi:
            raise SignatureError(
                f"slot {pos} has dimension {dims[pos]}, not {ai}*{bi}"
            )
    head, tail = dims[:start], dims[stop:]
    digits = head + _interleave(a, b) + tail
    order = (*range(start), *range(start, start + 2 * count, 2),
             *range(start + 1, start + 2 * count, 2),
             *range(start + 2 * count, len(digits)))
    return _regroup(x, digits, order, head + a.dims + b.dims + tail)


def product_phi_inverse(y: AlgebraElement, level: int) -> AlgebraElement:
    """Inverse of :func:`coproduct_phi` given the block split point.

    ``y`` lives over a concatenated signature (a_1..a_n, b_1..b_n) with
    n = ``level``; the result lives over (a_1*b_1, ..., a_n*b_n).
    """
    dims = y.sig.dims
    if len(dims) != 2 * level:
        raise SignatureError(
            f"signature length {len(dims)} does not split into two blocks "
            f"of {level}"
        )
    order = tuple(i + half for i in range(level) for half in (0, level))
    fused = tuple(ai * bi for ai, bi in zip(dims[:level], dims[level:]))
    return _regroup(y, dims, order, fused)


def kron_box(A, B) -> np.ndarray:
    """Kronecker product of dense matrices, lexicographic index convention:
    entry (m(i-1)+i', m(j-1)+j') of the result is A_ij * B_i'j' with
    m = dim(B)."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def to_dense(x: AlgebraElement) -> np.ndarray:
    """Materialize an element as one prod(a_i) x prod(a_i) complex matrix.

    The matrix of an elementary tensor is the Kronecker chain of its unit
    factors: a single entry at the row-major flattening
    (``numpy.ravel_multi_index``) of its row and of its column multi-index.
    All terms are scattered at once (``numpy.add.at``).  This is the
    brute-force oracle against which the sparse index maps are checked; it
    does not use their digit regrouping.  Guarded: refuses dimensions above
    ``DENSE_DIM_GUARD``.
    """
    D = x.sig.total_dim
    if D > DENSE_DIM_GUARD:
        raise ResourceGuardError(
            f"dense dimension {D} exceeds guard {DENSE_DIM_GUARD}"
        )
    out = np.zeros((D, D), dtype=complex)
    at = tuple(np.ravel_multi_index(tuple(index.T - 1), x.sig.dims)
               for index in (x.rows, x.cols))
    np.add.at(out, at, x.coeff)
    return out


def from_dense(matrix, sig) -> AlgebraElement:
    """Expand a dense matrix over ``sig`` in elementary tensors of units.

    Exact inverse of :func:`to_dense` up to coefficient pruning.
    """
    sig = as_signature(sig)
    m = np.asarray(matrix, dtype=complex)
    D = sig.total_dim
    if m.shape != (D, D):
        raise SignatureError(
            f"matrix shape {m.shape} does not match total dimension {D}"
        )
    kept = np.nonzero(np.abs(m) > COEFF_PRUNE_TOL)
    rows, cols = (_grid(sig.dims, i) for i in kept)
    return _pruned(sig, rows, cols, m[kept])


def block_permutation(a, b) -> np.ndarray:
    """Permutation matrix P with dense(coproduct(x)) = P dense(x) P^T.

    P re-sorts the interleaved factor basis (a_1, b_1, ..., a_n, b_n) of the
    fused stage into the block basis (a_1..a_n, b_1..b_n); P P^T = I.
    Row i of P is the identity's row at the fused basis index that numpy's
    reshape/transpose of the digits moves to block index i.
    """
    a = as_signature(a)
    b = as_signature(b)
    D = a.product(b).total_dim
    if D > DENSE_DIM_GUARD:
        raise ResourceGuardError(
            f"dense dimension {D} exceeds guard {DENSE_DIM_GUARD}")
    n = a.level
    order = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))
    moved = np.arange(D).reshape(_interleave(a, b)).transpose(order).reshape(-1)
    P = np.zeros((D, D), dtype=complex)
    P[np.arange(D), moved] = 1.0
    return P


def all_matrix_units(sig) -> Iterator[MatrixUnitIndex]:
    """All matrix-unit indices of a stage, rows-major lexicographic order."""
    for units in _unit_index_rows(sig):
        yield from units


def _unit_index_rows(sig) -> Iterator[list[MatrixUnitIndex]]:
    # the units of all_matrix_units, one list per row multi-index
    sig = as_signature(sig)
    ranges = [range(1, d + 1) for d in sig.dims]
    all_cols = list(itertools.product(*ranges))
    for rows in itertools.product(*ranges):
        yield [MatrixUnitIndex(rows, cols) for cols in all_cols]


def _tagged_units(sig, images_per_unit: int = 1) -> Iterator[AlgebraElement]:
    """The units of a stage in :func:`all_matrix_units` order, in chunks:
    per chunk of units u_0, u_1, ... the one element ``sum_k (k+1) E_{u_k}``.

    The coefficient ``k+1`` tags unit ``k`` of the chunk (term ``k`` of the
    element).  A map that relabels terms or splices identity factors into
    them keeps coefficients, so one call on a chunk carries every unit's
    images under its tag (see :func:`_unit_tags`); a merged or lost unit
    shows as a missing tag.  A chunk has at most
    ``max(1, _TAG_CHUNK_TERMS // images_per_unit)`` units, which caps the
    size of the images a caller makes from it.
    """
    sig = as_signature(sig)
    D = sig.total_dim
    step = max(1, _TAG_CHUNK_TERMS // images_per_unit)
    for start in range(0, D * D, step):
        unit = np.arange(start, min(start + step, D * D))
        yield _element(sig, _grid(sig.dims, unit // D),
                       _grid(sig.dims, unit % D),
                       np.arange(1, len(unit) + 1, dtype=complex))


def _unit_tags(y: AlgebraElement, count: int) -> np.ndarray:
    """Per term of ``y``: the unit ``k`` whose tag ``k+1`` (see
    :func:`_tagged_units`) is its coefficient, or -1 where the coefficient
    is no tag in ``1..count``."""
    k = y.coeff.real - 1
    with np.errstate(invalid="ignore"):
        is_tag = ((y.coeff.imag == 0) & (k >= 0) & (k < count)
                  & (k == np.floor(k)))
    return np.where(is_tag, k, -1).astype(np.int64)


def random_element(sig, rng=None, n_terms: int = 8) -> AlgebraElement:
    """Random sparse element: ``n_terms`` uniform indices with complex
    Gaussian coefficients.  Deterministic for a fixed seed."""
    sig = as_signature(sig)
    rng = np.random.default_rng(rng)
    terms = []
    for _ in range(n_terms):
        rows = tuple(int(rng.integers(1, d + 1)) for d in sig.dims)
        cols = tuple(int(rng.integers(1, d + 1)) for d in sig.dims)
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(((rows, cols), coeff))
    return AlgebraElement(sig, terms, validate=False)
