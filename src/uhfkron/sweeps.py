"""Unit sweeps, the dense oracle, the suite-only stage maps and samples.

This is the half of the calculus that no light CLI request runs: an
``eval``, ``coproduct``, ``tensor-state``, ``boxtimes`` or ``distance``
request never imports this module, so it never compiles it.  ``checks``,
``atoms`` and ``gns`` import it, and ``cli`` does inside its ``gns``
handler.

- Unit sweeps: :func:`all_matrix_units`, and the tagged chunks of units
  (:func:`_tagged_units`) whose images the exhaustive checks read back by
  tag (:func:`_unit_tags`, and :func:`_tagged_values` for state values).
- The dense oracle: :func:`to_dense`, :func:`from_dense`,
  :func:`kron_box` and :func:`block_permutation`.  It does not use the
  sparse maps' slot split, so it can check them.
- Stage maps that only the suites run: :func:`embed_psi`,
  :func:`insert_identity_slot`, :func:`coproduct_phi_block` and
  :func:`product_phi_inverse`.
- Seeded samples: :func:`random_element`, :func:`random_density` and
  :func:`random_state`.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from typing import Iterator

import numpy as np

from .algebra import (
    AlgebraElement,
    MatrixUnitIndex,
    Signature,
    _PRUNE_BAND,
    _block_element,
    _complex_array,
    _grid,
    _listed,
    _pruned,
    _split_slots,
    as_signature,
)
from .errors import (
    DENSE_DIM_GUARD,
    SignatureError,
    ValidationError,
    _entries,
    _guard,
    _integer,
)
from .states import (
    DensityFactor,
    ProductStateTrunc,
    _entry_layout,
    _slot_products,
)

__all__ = [
    "embed_psi",
    "insert_identity_slot",
    "coproduct_phi_block",
    "product_phi_inverse",
    "kron_box",
    "to_dense",
    "from_dense",
    "block_permutation",
    "all_matrix_units",
    "random_element",
    "random_density",
    "random_state",
]

# Image terms one tagged chunk of the unit grid may produce (memory cap).
_TAG_CHUNK_TERMS = 1 << 12


def all_matrix_units(sig) -> Iterator[MatrixUnitIndex]:
    """All matrix-unit indices of a stage, rows-major lexicographic order,
    one at a time (``itertools.product`` would first list every range);
    the first row's odometer lists the column multi-indices for the rest."""
    dims = as_signature(sig).dims
    unit = partial(tuple.__new__, MatrixUnitIndex)
    index, cols = [1] * len(dims), []
    while True:
        cols.append(tuple(index))
        yield unit((cols[0], cols[-1]))
        for slot in reversed(range(len(dims))):
            if index[slot] < dims[slot]:
                index[slot] += 1
                break
            index[slot] = 1
        else:
            break
    for rows in cols[1:]:
        yield from map(unit, zip(repeat(rows), cols))


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
    D, n = sig.total_dim, sig.level
    # unit u = r*D + c, and digit i of an index v (0-based) is
    # v // w_i - a_i*(v // w_(i-1)), w_i = a_(i+1)*...*a_n, each in place
    # on a row of the slot block viewed as (rows|cols, slot, unit)
    w = [math.prod(sig.dims[i + 1:]) for i in range(n)]
    tail = np.array(sig.dims[1:], dtype=np.int64)[:, None]
    step = max(1, _TAG_CHUNK_TERMS // images_per_unit)
    for start in range(0, D * D, step):
        unit = np.arange(start, min(start + step, D * D))
        block = np.empty((n, 2 * len(unit)), dtype=np.int64)
        digits = block.reshape(n, 2, -1).transpose(1, 0, 2)
        for q, wi in zip(digits[0], w):
            np.floor_divide(unit, wi * D, out=q)
        unit -= D * digits[0, -1]
        for q, wi in zip(digits[1], w):
            np.floor_divide(unit, wi, out=q)
        digits[:, 1:] -= tail * digits[:, :-1]
        block += 1
        yield _block_element(sig, block,
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


def _unit_name(x: AlgebraElement, k: int) -> str:
    """The name ``(rows)<-(cols)`` of unit ``k`` of a tagged chunk ``x``
    (see :func:`_tagged_units`), which is term ``k`` of ``x``."""
    return f"{tuple(x.rows[k].tolist())}<-{tuple(x.cols[k].tolist())}"


def _stacked_entry_table(factor_lists, sig: Signature) -> tuple:
    """The entry tables of the product states with these factor lists, all
    over ``sig``, stacked one column per state, with their _entry_layout.
    The stack is C-ordered, so gathering its rows copies only those rows."""
    entries = np.concatenate([f.matrix.ravel() for factors in factor_lists
                              for f in factors])
    return (np.ascontiguousarray(entries.reshape(len(factor_lists), -1).T),
            *_entry_layout(sig))


def _tagged_values(table: tuple, y: AlgebraElement,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """For an image ``y`` of a tagged chunk of units (see
    :func:`_tagged_units`): per unit ``k < count``, the number of terms
    of ``y`` tagged ``k+1``, and the value of each state of ``table`` (an
    ``_entry_table``, or a ``_stacked_entry_table`` of P states) on such a
    term with its coefficient left out, shape ``(count,)`` or
    ``(count, P)``: the slot products start from the first slot's entries,
    so this is ``states.state_evaluate`` of the unit's image when that
    number is 1, up to the sign of a zero part (which ``==`` ignores).
    """
    unit = _unit_tags(y, count)
    mine = unit >= 0
    values = np.zeros((count, *table[0].shape[1:]), dtype=complex)
    values[unit[mine]] = _slot_products(table, y.rows, y.cols)[mine]
    return np.bincount(unit[mine], minlength=count), values


def kron_box(A, B) -> np.ndarray:
    """Kronecker product of dense matrices, lexicographic index convention:
    entry (m(i-1)+i', m(j-1)+j') of the result is A_ij * B_i'j' with
    m = dim(B)."""
    return np.kron(_complex_array(A, "matrix A"),
                   _complex_array(B, "matrix B"))


def to_dense(x: AlgebraElement) -> np.ndarray:
    """Materialize an element as one prod(a_i) x prod(a_i) complex matrix.

    The matrix of an elementary tensor is the Kronecker chain of its unit
    factors: a single entry at the row-major flattening
    (``numpy.ravel_multi_index``) of its row and of its column multi-index.
    All terms are scattered at once (``numpy.add.at``).  This is the
    brute-force oracle against which the sparse index maps are checked; it
    does not use their slot split.  Guarded: refuses dimensions above
    ``DENSE_DIM_GUARD``.
    """
    D = x.sig.total_dim
    _guard("dense dimension", D)
    out = np.zeros((D, D), dtype=complex)
    at = tuple(np.ravel_multi_index(tuple(index.T - 1), x.sig.dims)
               for index in (x.rows, x.cols))
    np.add.at(out, at, x.coeff)
    return out


def from_dense(matrix, sig) -> AlgebraElement:
    """Expand a dense matrix over ``sig`` in elementary tensors of units.

    Exact inverse of :func:`to_dense` up to coefficient pruning, which is
    the constructor's (see ``algebra._kept``).
    """
    sig = as_signature(sig)
    m = _complex_array(matrix, "matrix")
    D = sig.total_dim
    if m.shape != (D, D):
        raise SignatureError(
            f"matrix shape {m.shape} does not match total dimension {D}"
        )
    # _kept decides every entry numpy.abs does not put below its band
    kept = np.nonzero(~(np.abs(m) < _PRUNE_BAND[0]))
    rows, cols = (_grid(sig.dims, i) for i in kept)
    with np.errstate(over="ignore", invalid="ignore"):
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
    _guard("dense dimension", D)
    # the digits (a_1, b_1, ..., a_n, b_n) of the fused slots a_i*b_i
    moved = _digit_move([d for pair in zip(a.dims, b.dims) for d in pair])
    P = np.zeros((D, D), dtype=complex)
    P[np.arange(D), moved] = 1.0
    return P


def _digit_move(digits, axes=None) -> np.ndarray:
    # entry i: the flat index over the digits of index i over the same
    # digits taken in the order ``axes``, by default the evens, then the
    # odds: the flat index over (p_1, q_1, ..., p_n, q_n) of block index i
    # over (p_1, ..., p_n, q_1, ..., q_n)
    if axes is None:
        axes = (*range(0, len(digits), 2), *range(1, len(digits), 2))
    return np.arange(math.prod(digits)).reshape(digits).transpose(axes).ravel()


def insert_identity_slot(x: AlgebraElement, position: int, dim: int) -> AlgebraElement:
    """Tensor an identity factor of size ``dim`` into slot ``position``.

    Each term E_{j,k} becomes sum_m E_{j,k} with E^{(dim)}_{mm} spliced in
    at ``position`` (0-based slot index; ``position == level`` appends).
    Both are integers, ``dim >= 2`` and ``0 <= position <= level``, else
    :class:`SignatureError`; more than ``DENSE_DIM_GUARD**2`` result terms
    raise :class:`ResourceGuardError`.
    """
    position = _integer(position, SignatureError, "slot position", low=0,
                        high=x.sig.level)
    dim = _integer(dim, SignatureError, "factor dimension",
                   f" at position {position + 1}", low=2)
    new_sig = Signature(
        x.sig.dims[:position] + (dim,) + x.sig.dims[position:]
    )
    _guard("term count", len(x) * dim, DENSE_DIM_GUARD ** 2)
    # the slot block as (slot, rows|cols, term, copy); the new slot counts
    # 1..dim as a running sum of ones, never a dim-long range
    block = np.empty((new_sig.level, 2 * len(x) * dim), dtype=np.int64)
    out = block.reshape(new_sig.level, 2, len(x), dim)
    for half, index in enumerate((x.rows.T, x.cols.T)):
        out[:position, half] = index[:position, :, None]
        out[position + 1:, half] = index[position:, :, None]
    out[position] = 1
    np.cumsum(out[position], axis=-1, out=out[position])
    return _block_element(new_sig, block, np.repeat(x.coeff, dim))


def embed_psi(x: AlgebraElement, next_dim: int) -> AlgebraElement:
    """Unital embedding A -> A (x) I into the stage extended by ``next_dim``."""
    return insert_identity_slot(x, x.sig.level, next_dim)


def coproduct_phi_block(x: AlgebraElement, start: int, count: int,
                        a, b) -> AlgebraElement:
    """Apply the coproduct to slots [start, start+count), leaving the rest.

    The split block comes out in block order: the first-factor slots occupy
    positions start..start+count-1, the second-factor slots follow, and all
    other slots keep their relative places.  Each split slot is divided as
    in :func:`~uhfkron.algebra.coproduct_phi`; the other slots are copied.
    ``start`` and ``count`` are integers with the block inside the slots,
    else :class:`SignatureError`.
    """
    a = as_signature(a)
    b = as_signature(b)
    dims = x.sig.dims
    count = _integer(count, SignatureError, "block length", low=1,
                     high=len(dims))
    if a.level != count or b.level != count:
        raise SignatureError("factor signatures must match the block length")
    start = _integer(start, SignatureError, "block start", low=0,
                     high=len(dims) - count)
    stop = start + count
    for pos, ai, bi in zip(range(start, stop), a.dims, b.dims):
        if dims[pos] != ai * bi:
            raise SignatureError(
                f"slot {pos} has dimension {dims[pos]}, not {ai}*{bi}"
            )
    return _split_slots(x, start, b.dims,
                        Signature(dims[:start] + a.dims + b.dims + dims[stop:]))


def product_phi_inverse(y: AlgebraElement, level: int) -> AlgebraElement:
    """Inverse of :func:`~uhfkron.algebra.coproduct_phi` given the block
    split point.

    ``y`` lives over a concatenated signature (a_1..a_n, b_1..b_n) with
    n = ``level``; the result lives over (a_1*b_1, ..., a_n*b_n), its slot
    i the index b_i*(j'_i - 1) + j''_i fused from slots i and n + i.
    ``level`` is an integer, else :class:`SignatureError`.
    """
    level = _integer(level, SignatureError, "level", low=1)
    dims = y.sig.dims
    if len(dims) != 2 * level:
        raise SignatureError(
            f"signature length {len(dims)} does not split into two blocks "
            f"of {level}"
        )
    fused = Signature(tuple(ai * bi for ai, bi in zip(dims[:level],
                                                      dims[level:])))
    return _fuse_slots(y, fused)


def _fuse_slots(y: AlgebraElement, sig: Signature) -> AlgebraElement:
    """Inverse of ``algebra._split_slots`` on a whole concatenated stage:
    slot i of the result is j = b_i*(j' - 1) + j'' from slots i and n + i
    of ``y`` (dimensions a_i and b_i, n = ``sig.level``), in place on the
    j'."""
    n, t = sig.level, len(y)
    block = np.concatenate([y.rows[:, :n].T, y.cols[:, :n].T], axis=1)
    block -= 1
    block *= np.array(y.sig.dims[n:], dtype=np.int64)[:, None]
    block[:, :t] += y.rows[:, n:].T
    block[:, t:] += y.cols[:, n:].T
    return _block_element(sig, block, y.coeff)


def _generator(seed) -> np.random.Generator:
    # numpy.random.default_rng(seed); a seed it refuses (a negative or
    # non-integer one) raises ValidationError
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValidationError(
            f"seed {seed!r} is not a non-negative integer") from None


def random_element(sig, rng=None, n_terms: int = 8) -> AlgebraElement:
    """Random sparse element: ``n_terms`` uniform indices with complex
    Gaussian coefficients.  Deterministic for a fixed seed.

    ``n_terms`` is an integer in ``0..DENSE_DIM_GUARD**2`` (else
    :class:`ValidationError`, or :class:`ResourceGuardError` past the
    guard) and a seed ``rng`` is non-negative (else
    :class:`ValidationError`)."""
    sig = as_signature(sig)
    n_terms = _integer(n_terms, ValidationError, "term count", low=0)
    _guard("term count", n_terms, DENSE_DIM_GUARD ** 2)
    rng = _generator(rng)
    rows, cols, coeff = [], [], []
    for _ in range(n_terms):
        rows.append(tuple(int(rng.integers(1, d + 1)) for d in sig.dims))
        cols.append(tuple(int(rng.integers(1, d + 1)) for d in sig.dims))
        coeff.append(complex(rng.standard_normal(), rng.standard_normal()))
    return _listed(sig, rows, cols, coeff)


def random_density(dim: int, seed=None) -> DensityFactor:
    """Random density matrix G G^dagger / tr, G complex Gaussian.

    Deterministic for a fixed seed; full rank with probability one.  A
    dimension that is no integer >= 2 and a negative seed raise
    :class:`ValidationError`, a dimension above ``DENSE_DIM_GUARD``
    :class:`ResourceGuardError`.
    """
    dim = _integer(dim, ValidationError, "density dimension", low=2)
    _guard("density dimension", dim)
    rng = _generator(seed)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    W = G @ G.conj().T
    return DensityFactor(W / np.trace(W).real)


def random_state(dims, seed: int) -> ProductStateTrunc:
    """Product of :func:`random_density` factors over ``dims``.

    Factor ``i`` is drawn with seed ``seed*31 + i``, so a fixed seed gives
    the same state every time.  ``dims`` that are no sequence of integers
    >= 2 and a negative seed raise :class:`ValidationError`.
    """
    if _integer(seed, ValidationError, "seed") < 0:
        raise ValidationError(f"seed {seed!r} is not a non-negative integer")
    dims = _entries(dims, ValidationError, "signature")
    return ProductStateTrunc(
        [random_density(d, seed=seed * 31 + i) for i, d in enumerate(dims)]
    )
