"""Product states on tensor stages and their non-symmetric tensor product.

A product state is a sequence of density factors, one per tensor slot; on
an elementary tensor of matrix units it evaluates to the product of single
factor values with the transpose convention

    omega(E_{j_1 k_1} (x) ... (x) E_{j_n k_n}) = prod_i T^{(i)}[k_i, j_i].

With that convention the level-n density matrix is the plain Kronecker
chain T^{(1)} (x) ... (x) T^{(n)} (no transpose): tr(T E_{jk}) = T_{kj}.

Evaluation works on an element's index arrays: each slot's factor
entries are gathered for all terms at once and multiplied into the
running products slot by slot, each product rounded as Python's complex
``*`` rounds it (``algebra._cmul``); the term values are then added one
after another in the element's canonical term order, so results are the
bits of a plain loop over the terms.  A state flattens its factors'
entries into one table on first evaluation and keeps it, so evaluating a
few terms costs a fixed few numpy calls per slot.

The exhaustive checks read state values off the image of a tagged chunk
of units (``sweeps._tagged_units``) through one reader,
``sweeps._tagged_values``: per unit, the count of its image terms and the
value on its image.  It reads one state's table, or the tables of several
states stacked one column per state (``sweeps._stacked_entry_table``),
and runs the same gather and slot-by-slot products as
:func:`state_evaluate` (``_slot_products``), started from the first
slot's entries rather than from a coefficient.  A chunk itself is its own
unit list, one term per unit, so its values are read by
``_slot_products`` directly, with no tag to read.

The non-symmetric tensor product of two states composes the ordinary
tensor-product state with the Kronecker coproduct.  On product states it
again yields a product state, with factorwise Kronecker densities
(:meth:`DensityFactor.boxtimes`, one broadcast multiply, not the dense
oracle ``sweeps.kron_box``); the two computations are kept independent
here so that agreement is a test, not a definition.

A density factor owns its purification frame (``DensityFactor._frame``)
and the one positivity rule: validation refuses a smallest eigenvalue
below -``GNS_EIG_CUTOFF`` and the frame keeps the eigenvectors of those
above it.  ``eigh`` reads one triangle only, so validation also refuses a
Hermitian defect above the cutoff; each accepted factor's GNS
purification then reproduces every entry within it.  A boxtimes
product's frame is the Kronecker product of its operands' frames: the
GNS vector of a product state is the tensor product of its factors'.
The frame is made on first read and kept, so a factor is decomposed and
purified once however many GNS calls read it.

A non-finite coefficient gives a non-finite value and never a
floating-point warning, whatever ``numpy.errstate`` the caller set.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraElement,
    Signature,
    _cmul_parts,
    _complex,
    _complex_array,
    coproduct_phi,
)
from .errors import SignatureError, ValidationError, _guard, _integer

__all__ = [
    "DENSITY_VALIDATE_TOL",
    "GNS_EIG_CUTOFF",
    "DensityFactor",
    "ProductStateTrunc",
    "density_validate",
    "state_evaluate",
    "state_boxtimes",
    "state_tensor_phi_eval",
    "state_density_level",
    "state_trace_distance",
]

# Tolerance for the unit-trace check on densities.
DENSITY_VALIDATE_TOL = 1e-10
# The positivity rule: an eigenvalue below -this is refused, one above kept;
# it also bounds the Hermitian defect, which eigh does not read.
GNS_EIG_CUTOFF = 1e-12


def density_validate(matrix) -> np.ndarray:
    """Check that ``matrix`` is a density matrix; return it as a complex array.

    Raises :class:`ValidationError` naming the violated property: square
    shape, dimension >= 2, Hermitian within ``GNS_EIG_CUTOFF``, trace 1
    within ``DENSITY_VALIDATE_TOL``, smallest eigenvalue >=
    -``GNS_EIG_CUTOFF``.
    Entries that are no complex numbers, then non-finite ones, are
    rejected first.
    """
    m = _complex_array(matrix, "density matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"density matrix must be square, got {m.shape}")
    _integer(m.shape[0], ValidationError, "density dimension", low=2)
    if not np.all(np.isfinite(m)):
        raise ValidationError("density matrix has a non-finite entry")
    # finite entries near the float limit may overflow to inf, and a sum of
    # such infs to nan; either defect then fails its check, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        trace_defect = abs(complex(np.trace(m)) - 1.0)
    if not herm_defect <= GNS_EIG_CUTOFF:
        raise ValidationError(
            f"matrix is not Hermitian (defect {herm_defect:.3e} > "
            f"{GNS_EIG_CUTOFF:.0e})"
        )
    if not trace_defect <= DENSITY_VALIDATE_TOL:
        raise ValidationError(
            f"trace differs from 1 by {trace_defect:.3e} "
            f"(> {DENSITY_VALIDATE_TOL:.0e})"
        )
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -GNS_EIG_CUTOFF:
        raise ValidationError(
            f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})"
        )
    return m


class DensityFactor:
    """One density matrix: Hermitian, positive semidefinite, trace one.

    The stored array is a validated, read-only copy.
    """

    __slots__ = ("dim", "matrix", "_operands", "_purification")

    def __init__(self, matrix):
        _hold(density_validate(matrix).copy(), f=self)

    def __setattr__(self, name, value):
        raise AttributeError("DensityFactor is immutable")

    def __reduce__(self):
        # copies and pickles rebuild unchecked, a product with its operands
        return _hold, (self.matrix, self._operands)

    @classmethod
    def diagonal(cls, values) -> "DensityFactor":
        return cls(np.diag(_complex_array(values, "diagonal values")))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityFactor":
        """I/dim; ``dim`` is an integer >= 2 (else :class:`ValidationError`)
        and at most ``DENSE_DIM_GUARD`` (else :class:`ResourceGuardError`)."""
        dim = _integer(dim, ValidationError, "density dimension", low=2)
        _guard("density dimension", dim)
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def pure(cls, vector) -> "DensityFactor":
        """Rank-one density |v><v| / <v, v>.

        ``vector`` has exactly one axis, finite entries and one nonzero
        entry at least (else :class:`ValidationError`).  It is first
        scaled by a power of two that brings its largest part modulus into
        [0.5, 1), so <v, v> neither overflows nor underflows; the scaling
        is exact, and moves no bit of the density unless a product of
        entries falls out of the normal range.  After it every |v_i v_j|
        is below 2 and <v, v> at least 0.25, so only an underflow can
        occur, and it is not raised or warned of, whatever
        ``numpy.errstate`` the caller set.
        """
        v = _complex_array(vector, "pure-state vector")
        if v.ndim != 1:
            raise ValidationError(
                f"pure-state vector must have one axis, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("pure-state vector has a non-finite entry")
        if not v.any():
            raise ValidationError("pure-state vector must be nonzero")
        _, e = np.frexp(max(np.abs(v.real).max(), np.abs(v.imag).max()))
        with np.errstate(under="ignore"):
            v = _complex(np.ldexp(v.real, -e), np.ldexp(v.imag, -e))
            m = np.outer(v, v.conj()) / np.vdot(v, v).real
        return cls(m)

    def boxtimes(self, other: "DensityFactor") -> "DensityFactor":
        # numpy.kron's products (see _kron).  A density, not checked again:
        # its trace defect may be twice a factor's, past the absolute
        # tolerance each factor met
        return _hold(_kron(self.matrix, other.matrix), (self, other))

    def _frame(self) -> np.ndarray:
        # the purification frame, read-only, made on first read and kept:
        # the eigenvectors of the eigenvalues above GNS_EIG_CUTOFF, by one
        # eigh in descending order, each scaled by the square root of its
        # eigenvalue; for a boxtimes product the Kronecker product of its
        # operands' frames, so its rank is the product of their ranks
        if self._purification is None:
            if self._operands is None:
                # eigh returns the eigenvalues in ascending order
                values, vectors = np.linalg.eigh(self.matrix)
                values, vectors = values[::-1], vectors[:, ::-1]
                kept = values > GNS_EIG_CUTOFF
                frame = vectors[:, kept] * np.sqrt(values[kept])
            else:
                frame = _kron(*(f._frame() for f in self._operands))
            frame.setflags(write=False)
            object.__setattr__(self, "_purification", frame)
        return self._purification

    def __repr__(self):
        return f"DensityFactor(dim={self.dim})"


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # numpy.kron's products of two matrices by one broadcast multiply:
    # entry (p i + i', q j + j') is A_ij B_i'j', (p, q) = B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(
        len(A) * len(B), -1)


def _hold(m: np.ndarray, operands: tuple | None = None,
          f: DensityFactor | None = None) -> DensityFactor:
    # make the density matrix m (not checked) read-only and the matrix of
    # f, by default a new factor, a product of operands if given; return f
    if f is None:
        f = object.__new__(DensityFactor)
    m.setflags(write=False)
    object.__setattr__(f, "matrix", m)
    object.__setattr__(f, "dim", m.shape[0])
    object.__setattr__(f, "_operands", operands)
    object.__setattr__(f, "_purification", None)
    return f


def _entry_layout(sig: Signature) -> tuple:
    """The dims and per-slot bases of the entries of factors over ``sig``,
    flat in slot order: T^{(i)}[k - 1, j - 1] sits at k a_i + j + base[i]."""
    dims = np.array(sig.dims, dtype=np.int64)
    sizes = dims * dims
    return dims, np.cumsum(sizes) - sizes - dims - 1


class ProductStateTrunc:
    """A finite truncation of a product state: one DensityFactor per slot.

    Immutable.  Its entry table and its GNS triplet (``gns.gns_build``)
    are made on first use and kept on the state; copies and pickles make
    their own.
    """

    __slots__ = ("sig", "factors", "_entries", "_gns")

    def __init__(self, factors):
        factors = tuple(
            f if isinstance(f, DensityFactor) else DensityFactor(f)
            for f in factors
        )
        if not factors:
            raise SignatureError("a product state needs at least one factor")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(
            self, "sig", Signature(tuple(f.dim for f in factors))
        )

    def __setattr__(self, name, value):
        raise AttributeError("ProductStateTrunc is immutable")

    def __reduce__(self):
        # its factors rebuild unchecked (DensityFactor.__reduce__), and the
        # kept entry table and triplet are not carried
        return ProductStateTrunc, (self.factors,)

    @property
    def level(self) -> int:
        return self.sig.level

    def _entry_table(self) -> tuple:
        # all factor entries, flat in slot order, and their _entry_layout;
        # made on first use and kept
        try:
            return self._entries
        except AttributeError:
            pass
        table = (np.concatenate([f.matrix.ravel() for f in self.factors]),
                 *_entry_layout(self.sig))
        object.__setattr__(self, "_entries", table)
        return table

    def concat(self, other: "ProductStateTrunc") -> "ProductStateTrunc":
        """The tensor-product state on the concatenated signature."""
        return ProductStateTrunc(self.factors + other.factors)

    def __repr__(self):
        return f"ProductStateTrunc(sig={self.sig.dims})"


def state_evaluate(S: ProductStateTrunc, x: AlgebraElement) -> complex:
    """Evaluate the product state on an element.

    Linear in ``x``; on an elementary tensor the value is the product of
    factor entries T^{(i)}[k_i, j_i] (note the transposed index order).
    The term values are added one after another onto ``0j`` in term order
    (a running sum, not numpy's pairwise one), so the bits follow the
    element's canonical term order.
    """
    if S.sig != x.sig:
        raise SignatureError(
            f"state signature {S.sig.dims} does not match element "
            f"signature {x.sig.dims}"
        )
    values = _slot_products(S._entry_table(), x.rows, x.cols, x.coeff)
    # a non-finite coefficient gives a non-finite value, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.concatenate(([0j], values)).cumsum()[-1])


def _slot_products(table: tuple, rows, cols, start=None) -> np.ndarray:
    """Per term (``rows``, ``cols``: terms by slots): ``start`` times the
    entries T^{(i)}[k_i - 1, j_i - 1] of ``table`` (an ``_entry_table`` or
    a stack of them), multiplied one slot at a time in slot order, each
    product rounded as Python's complex ``*`` rounds it.  With no
    ``start`` the products start from the first slot's entries, which is
    ``1 + 0j`` times them up to the sign of a zero part."""
    entries, dims, base = table
    # per slot (one contiguous row), each term's place among the flat entries;
    # the entries are gathered one slot at a time, so no (slots, terms)
    # block of them is held
    at = np.add(cols * dims + rows, base, order="F").T
    slots = (entries.take(slot, axis=0) for slot in at)
    if start is None:
        start = next(slots)
    re, im = start.real, start.imag
    with np.errstate(over="ignore", invalid="ignore"):
        for factor_entries in slots:
            re, im = _cmul_parts(re, im, factor_entries.real,
                                 factor_entries.imag)
    return _complex(re, im)


def state_boxtimes(S: ProductStateTrunc, R: ProductStateTrunc) -> ProductStateTrunc:
    """Factorwise Kronecker product of the density data; levels must match."""
    if S.level != R.level:
        raise SignatureError(
            f"levels differ: {S.level} vs {R.level}"
        )
    return ProductStateTrunc(
        tuple(f.boxtimes(g) for f, g in zip(S.factors, R.factors))
    )


def state_tensor_phi_eval(S: ProductStateTrunc, R: ProductStateTrunc,
                          x: AlgebraElement) -> complex:
    """Non-symmetric tensor product of states, evaluated on ``x``.

    Computes (omega_S (x) omega_R)(phi(x)): split ``x`` with the Kronecker
    coproduct, then evaluate the concatenated product state.  ``x`` must
    live over the entrywise product of the two signatures.
    """
    return state_evaluate(S.concat(R), coproduct_phi(x, S.sig, R.sig))


def state_density_level(S: ProductStateTrunc) -> np.ndarray:
    """Level-n density matrix: the Kronecker chain of the factors.

    The unique D with omega(x) = tr(D . dense(x)); positive, trace one.
    Refuses total dimensions above ``DENSE_DIM_GUARD``.
    """
    _guard("dense dimension", S.sig.total_dim)
    out = np.array([[1.0 + 0j]])
    for f in S.factors:
        out = np.kron(out, f.matrix)
    return out


def state_trace_distance(S1: ProductStateTrunc,
                         S2: ProductStateTrunc) -> float:
    """Trace-norm distance of the level-n densities: sum |eig(D1 - D2)|."""
    if S1.sig != S2.sig:
        raise SignatureError(
            f"signature mismatch: {S1.sig.dims} vs {S2.sig.dims}"
        )
    diff = state_density_level(S1) - state_density_level(S2)
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
