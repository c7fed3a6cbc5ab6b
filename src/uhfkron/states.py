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
bits of a plain loop over the terms.

The non-symmetric tensor product of two states composes the ordinary
tensor-product state with the Kronecker coproduct.  On product states it
again yields a product state, with factorwise Kronecker densities; the
two computations are kept independent here so that agreement is a test,
not a definition.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    DENSE_DIM_GUARD,
    AlgebraElement,
    Signature,
    _cmul,
    _unit_tags,
    coproduct_phi,
    kron_box,
)
from .errors import ResourceGuardError, SignatureError, ValidationError

__all__ = [
    "DENSITY_VALIDATE_TOL",
    "DensityFactor",
    "ProductStateTrunc",
    "density_validate",
    "state_evaluate",
    "state_boxtimes",
    "state_tensor_phi_eval",
    "state_density_level",
    "state_trace_distance",
    "random_density",
    "random_state",
]

# Tolerance for the Hermitian / positive / unit-trace checks on densities.
DENSITY_VALIDATE_TOL = 1e-10


def density_validate(matrix) -> np.ndarray:
    """Check that ``matrix`` is a density matrix; return it as a complex array.

    Raises :class:`ValidationError` naming the violated property: square
    shape, dimension >= 2, Hermitian within ``DENSITY_VALIDATE_TOL``, trace
    1 within it, smallest eigenvalue >= -``DENSITY_VALIDATE_TOL``.
    Non-finite entries are rejected first.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"density matrix must be square, got {m.shape}")
    if m.shape[0] < 2:
        raise ValidationError(f"density dimension {m.shape[0]} is < 2")
    if not np.all(np.isfinite(m)):
        raise ValidationError("density matrix has a non-finite entry")
    herm_defect = float(np.max(np.abs(m - m.conj().T)))
    if herm_defect > DENSITY_VALIDATE_TOL:
        raise ValidationError(
            f"matrix is not Hermitian (defect {herm_defect:.3e} > "
            f"{DENSITY_VALIDATE_TOL:.0e})"
        )
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if trace_defect > DENSITY_VALIDATE_TOL:
        raise ValidationError(
            f"trace differs from 1 by {trace_defect:.3e} "
            f"(> {DENSITY_VALIDATE_TOL:.0e})"
        )
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -DENSITY_VALIDATE_TOL:
        raise ValidationError(
            f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})"
        )
    return m


class DensityFactor:
    """One density matrix: Hermitian, positive semidefinite, trace one.

    The stored array is a validated, read-only copy.
    """

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        m = density_validate(matrix).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])

    def __setattr__(self, name, value):
        raise AttributeError("DensityFactor is immutable")

    @classmethod
    def diagonal(cls, values) -> "DensityFactor":
        return cls(np.diag(np.asarray(values, dtype=complex)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityFactor":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def pure(cls, vector) -> "DensityFactor":
        """Rank-one density |v><v| / <v, v>."""
        v = np.asarray(vector, dtype=complex)
        nrm2 = float(np.vdot(v, v).real)
        if nrm2 <= 0.0:
            raise ValidationError("pure-state vector must be nonzero")
        return cls(np.outer(v, v.conj()) / nrm2)

    def boxtimes(self, other: "DensityFactor") -> "DensityFactor":
        return DensityFactor(kron_box(self.matrix, other.matrix))

    def __repr__(self):
        return f"DensityFactor(dim={self.dim})"


class ProductStateTrunc:
    """A finite truncation of a product state: one DensityFactor per slot."""

    __slots__ = ("sig", "factors")

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

    @property
    def level(self) -> int:
        return self.sig.level

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
    values = _factor_products(S, x, x.coeff)
    return complex(np.cumsum(np.concatenate([[0j], values]))[-1])


def _factor_products(S: ProductStateTrunc, x: AlgebraElement,
                     start) -> np.ndarray:
    """Per term of ``x``, in term order: ``start`` times the factor entries
    T^{(i)}[k_i - 1, j_i - 1], multiplied one slot at a time in slot order,
    each product rounded as Python's complex ``*`` rounds it."""
    if S.sig != x.sig:
        raise SignatureError(
            f"state signature {S.sig.dims} does not match element "
            f"signature {x.sig.dims}"
        )
    dims = np.array(S.sig.dims)
    sizes = dims * dims
    entries = np.concatenate([f.matrix.ravel() for f in S.factors])
    # per slot (rows of ``at``), each term's place among the flat entries
    at = ((x.cols - 1) * dims + x.rows - 1 + (np.cumsum(sizes) - sizes)).T
    value = start
    for factor_entries in entries[at]:
        value = _cmul(value, factor_entries)
    return value


def _tagged_values(S: ProductStateTrunc, y: AlgebraElement,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """For an image ``y`` of a tagged chunk of units (see
    ``algebra._tagged_units``): per unit ``k < count``, the number of terms
    of ``y`` tagged ``k+1``, and the value of ``S`` on such a term with its
    coefficient left out, i.e. ``state_evaluate`` of the unit's image when
    that number is 1 (a zero part may differ in sign).
    """
    unit = _unit_tags(y, count)
    mine = unit >= 0
    values = np.zeros(count, dtype=complex)
    values[unit[mine]] = _factor_products(
        S, y, np.ones(len(y), dtype=complex))[mine]
    return np.bincount(unit[mine], minlength=count), values


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
    D = S.sig.total_dim
    if D > DENSE_DIM_GUARD:
        raise ResourceGuardError(
            f"dense dimension {D} exceeds guard {DENSE_DIM_GUARD}")
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


def random_density(dim: int, seed=None) -> DensityFactor:
    """Random density matrix G G^dagger / tr, G complex Gaussian.

    Deterministic for a fixed seed; full rank with probability one.
    """
    if dim < 2:
        raise ValidationError(f"density dimension {dim} is < 2")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    W = G @ G.conj().T
    return DensityFactor(W / np.trace(W).real)


def random_state(dims, seed: int) -> ProductStateTrunc:
    """Product of :func:`random_density` factors over ``dims``.

    Factor ``i`` is drawn with seed ``seed*31 + i``, so a fixed seed gives
    the same state every time.
    """
    return ProductStateTrunc(
        [random_density(d, seed=seed * 31 + i) for i, d in enumerate(dims)]
    )
