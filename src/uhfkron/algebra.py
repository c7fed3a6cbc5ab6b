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
:func:`to_dense` materializes elements through ``numpy.kron``, so the two
conventions agree by construction.  The codomain of the coproduct is kept
as an element over the concatenated signature, first block before second.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple

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


@dataclass(frozen=True)
class Signature:
    """Ordered factor dimensions (a_1, ..., a_n) of a stage, each >= 2."""

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


class AlgebraElement:
    """Sparse element of a tensor stage, kept in canonical form.

    Canonical form merges duplicate indices and drops coefficients of
    magnitude <= ``prune_tol``.  Instances are immutable; all operations
    return new elements.  ``*`` is the algebra product (or scalar scaling),
    ``+``/``-`` the linear structure, :meth:`adjoint` the *-operation.
    """

    __slots__ = ("sig", "_terms")

    def __init__(self, sig, terms=None, *, prune_tol: float = COEFF_PRUNE_TOL,
                 validate: bool = True):
        sig = as_signature(sig)
        merged: dict[MatrixUnitIndex, complex] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for idx, coeff in items:
                if validate:
                    idx = _check_index(sig, idx[0], idx[1])
                elif not isinstance(idx, MatrixUnitIndex):
                    idx = MatrixUnitIndex(tuple(idx[0]), tuple(idx[1]))
                merged[idx] = merged.get(idx, 0j) + complex(coeff)
        try:
            kept = {idx: c for idx, c in merged.items() if abs(c) > prune_tol}
        except OverflowError:
            kept = {idx: c for idx, c in merged.items()
                    if _modulus(c) > prune_tol}
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_terms", kept)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @property
    def terms(self):
        """Read-only map MatrixUnitIndex -> coefficient."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def sorted_terms(self) -> list[tuple[MatrixUnitIndex, complex]]:
        """Terms sorted lexicographically by (rows, cols)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def _require_same_sig(self, other: "AlgebraElement"):
        if self.sig != other.sig:
            raise SignatureError(
                f"signature mismatch: {self.sig.dims} vs {other.sig.dims}"
            )

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_sig(other)
        out = dict(self._terms)
        for idx, c in other._terms.items():
            out[idx] = out.get(idx, 0j) + c
        return AlgebraElement(self.sig, out, validate=False)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same_sig(other)
            by_rows: dict[tuple[int, ...], list] = {}
            for (r2, c2), v2 in other._terms.items():
                by_rows.setdefault(r2, []).append((c2, v2))
            out: dict[MatrixUnitIndex, complex] = {}
            for (r1, c1), v1 in self._terms.items():
                for c2, v2 in by_rows.get(c1, ()):
                    idx = MatrixUnitIndex(r1, c2)
                    out[idx] = out.get(idx, 0j) + v1 * v2
            return AlgebraElement(self.sig, out, validate=False)
        if isinstance(other, numbers.Number):
            c = complex(other)
            return AlgebraElement(
                self.sig,
                {idx: c * v for idx, v in self._terms.items()},
                validate=False,
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self * other
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        """The *-operation: swap rows and columns, conjugate coefficients."""
        return AlgebraElement(
            self.sig,
            {MatrixUnitIndex(c, r): v.conjugate()
             for (r, c), v in self._terms.items()},
            validate=False,
        )

    def canonicalize(self, prune_tol: float = COEFF_PRUNE_TOL) -> "AlgebraElement":
        """Re-run canonicalization (merge + prune); idempotent."""
        return AlgebraElement(self.sig, self._terms, prune_tol=prune_tol,
                              validate=False)

    def allclose(self, other: "AlgebraElement", tol: float = COMPARE_TOL) -> bool:
        if self.sig != other.sig:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0j) - other._terms.get(k, 0j)) <= tol
            for k in keys
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    __hash__ = None

    def to_dense(self, *, guard: int = DENSE_DIM_GUARD) -> np.ndarray:
        return to_dense(self, guard=guard)

    def __repr__(self):
        return (f"AlgebraElement(sig={self.sig.dims}, "
                f"terms={len(self._terms)})")


def matrix_unit(sig, rows, cols) -> AlgebraElement:
    """Elementary tensor of matrix units with coefficient one.

    ``rows``/``cols`` are 1-based multi-indices (ints allowed at level 1).
    Raises :class:`IndexRangeError` naming the offending factor position.
    """
    sig = as_signature(sig)
    idx = _check_index(sig, rows, cols)
    return AlgebraElement(sig, {idx: 1.0}, validate=False)


def identity(sig) -> AlgebraElement:
    """The unit of the stage: sum of all diagonal elementary tensors."""
    sig = as_signature(sig)
    terms = {
        MatrixUnitIndex(diag, diag): 1.0
        for diag in itertools.product(*(range(1, d + 1) for d in sig.dims))
    }
    return AlgebraElement(sig, terms, validate=False)


def zero(sig) -> AlgebraElement:
    return AlgebraElement(as_signature(sig))


def elem_tensor(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Tensor product over the concatenated signature."""
    out: dict[MatrixUnitIndex, complex] = {}
    for (r1, c1), v1 in x.terms.items():
        for (r2, c2), v2 in y.terms.items():
            out[MatrixUnitIndex(r1 + r2, c1 + c2)] = v1 * v2
    return AlgebraElement(x.sig.concat(y.sig), out, validate=False)


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
    out: dict[MatrixUnitIndex, complex] = {}
    for (r, c), v in x.terms.items():
        for m in range(1, dim + 1):
            idx = MatrixUnitIndex(
                r[:position] + (m,) + r[position:],
                c[:position] + (m,) + c[position:],
            )
            out[idx] = v
    return AlgebraElement(new_sig, out, validate=False)


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
    # stride); cached because the suites repeat a few shapes many times
    moved = [digits[k] for k in order]
    source = _digit_places(in_dims, digits)
    target = _digit_places(out_dims, moved)
    return tuple(
        (*source[k], radix, *place)
        for k, radix, place in zip(order, moved, target)
    )


def _regroup(x: AlgebraElement, digits: tuple[int, ...],
             order: tuple[int, ...],
             out_dims: tuple[int, ...]) -> AlgebraElement:
    """Relabel every row and column multi-index of ``x``, keeping coefficients.

    A multi-index is read as one row-major tensor index and moved the way
    numpy moves it under ``reshape(digits).transpose(order)
    .reshape(out_dims)``; the result lives over ``out_dims``.  Each slot
    of ``x`` and of ``out_dims`` spans whole digits.  Each distinct
    multi-index is converted once per call.
    """
    plan = _digit_plan(x.sig.dims, digits, order, out_dims)
    ones = [1] * len(out_dims)
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def relabel(multi):
        out = memo.get(multi)
        if out is None:
            acc = ones[:]
            for src, stride, radix, dst, weight in plan:
                acc[dst] += (multi[src] - 1) // stride % radix * weight
            out = memo[multi] = tuple(acc)
        return out

    terms = {
        MatrixUnitIndex(relabel(r), relabel(c)): v
        for (r, c), v in x._terms.items()
    }
    return AlgebraElement(out_dims, terms, validate=False)


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


def to_dense(x: AlgebraElement, *, guard: int = DENSE_DIM_GUARD) -> np.ndarray:
    """Materialize an element as one prod(a_i) x prod(a_i) complex matrix.

    The matrix of an elementary tensor is the Kronecker chain of its unit
    factors, so this is the brute-force oracle against which the sparse
    index maps are checked.  Guarded: refuses dimensions above ``guard``.
    """
    D = x.sig.total_dim
    if D > guard:
        raise ResourceGuardError(
            f"dense dimension {D} exceeds guard {guard}"
        )
    out = np.zeros((D, D), dtype=complex)
    for (r, c), v in x.terms.items():
        block = np.array([[v]], dtype=complex)
        for j, k, d in zip(r, c, x.sig.dims):
            unit = np.zeros((d, d), dtype=complex)
            unit[j - 1, k - 1] = 1.0
            block = np.kron(block, unit)
        out += block
    return out


def from_dense(matrix, sig, *, prune_tol: float = COEFF_PRUNE_TOL) -> AlgebraElement:
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
    kept = np.nonzero(np.abs(m) > prune_tol)
    rows, cols = (
        (np.stack(np.unravel_index(i, sig.dims), axis=1) + 1).tolist()
        for i in kept
    )
    out = {
        MatrixUnitIndex(tuple(r), tuple(c)): complex(v)
        for r, c, v in zip(rows, cols, m[kept])
    }
    return AlgebraElement(sig, out, prune_tol=prune_tol, validate=False)


def block_permutation(a, b, *, guard: int = DENSE_DIM_GUARD) -> np.ndarray:
    """Permutation matrix P with dense(coproduct(x)) = P dense(x) P^T.

    P re-sorts the interleaved factor basis (a_1, b_1, ..., a_n, b_n) of the
    fused stage into the block basis (a_1..a_n, b_1..b_n); P P^T = I.
    Row i of P is the identity's row at the fused basis index that numpy's
    reshape/transpose of the digits moves to block index i.
    """
    a = as_signature(a)
    b = as_signature(b)
    D = a.product(b).total_dim
    if D > guard:
        raise ResourceGuardError(f"dense dimension {D} exceeds guard {guard}")
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


def _unit_rows(sig) -> Iterator[tuple[list[MatrixUnitIndex], AlgebraElement]]:
    """Per row multi-index, in :func:`all_matrix_units` order: that row's
    units and the one element ``sum_k (k+1) E_{rows, cols_k}``.

    The coefficient ``k+1`` tags unit ``k``.  A map that relabels terms or
    splices identity factors into them keeps coefficients, so one call on
    the row element carries every unit's image under its tag (see
    :func:`_images`); a merged or lost unit shows as a missing tag.
    """
    sig = as_signature(sig)
    for units in _unit_index_rows(sig):
        yield units, AlgebraElement(
            sig, dict(zip(units, itertools.count(1))), validate=False
        )


def _images(y: AlgebraElement) -> dict[complex, list[MatrixUnitIndex]]:
    """The terms of ``y`` grouped by coefficient: tag -> image indices."""
    out: dict[complex, list[MatrixUnitIndex]] = {}
    for idx, coeff in y._terms.items():
        out.setdefault(coeff, []).append(idx)
    return out


def random_element(sig, rng=None, n_terms: int = 8) -> AlgebraElement:
    """Random sparse element: ``n_terms`` uniform indices with complex
    Gaussian coefficients.  Deterministic for a fixed seed."""
    sig = as_signature(sig)
    rng = np.random.default_rng(rng)
    terms: dict[MatrixUnitIndex, complex] = {}
    for _ in range(n_terms):
        rows = tuple(int(rng.integers(1, d + 1)) for d in sig.dims)
        cols = tuple(int(rng.integers(1, d + 1)) for d in sig.dims)
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        idx = MatrixUnitIndex(rows, cols)
        terms[idx] = terms.get(idx, 0j) + coeff
    return AlgebraElement(sig, terms, validate=False)
