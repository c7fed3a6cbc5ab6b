"""GNS representations of product states at finite level, via purification.

Each density factor T on M_d is purified: with T = sum_t lambda_t v_t v_t*
and r = #{lambda_t > cutoff}, the factor space is C^d (x) C^r, the factor
representation is x |-> x (x) I_r, and the factor cyclic vector is
sum_t sqrt(lambda_t) v_t (x) e_t.  A product state's GNS data is the slot
by slot tensor product of its factor data.

The map sending an element x to rep(x) applied to the cyclic vector spans
the whole space, so a second representation of the same state determines a
unique unitary between the two spans.  :func:`gns_intertwiner` builds that
unitary between the representation of the factorwise-Kronecker state and
the coproduct composition of the two separate representations, checking
well-definedness (equality of the Gram matrices of the two spanning
families) instead of assuming it.

:func:`commutant_dimension` measures irreducibility: it solves the linear
system [rep(E_u), X] = 0 over all matrix units and reports the dimension
of the solution space by a singular-value rank decision.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .algebra import (
    DENSE_DIM_GUARD,
    AlgebraElement,
    MatrixUnitIndex,
    Signature,
    all_matrix_units,
    coproduct_phi,
    matrix_unit,
)
from .errors import (
    GramMismatchError,
    ResourceGuardError,
    SignatureError,
    ValidationError,
)
from .states import DensityFactor, ProductStateTrunc, state_boxtimes

__all__ = [
    "GNS_EIG_CUTOFF",
    "SV_RANK_CUTOFF",
    "GRAM_TOL",
    "FactorGns",
    "GnsTriplet",
    "gns_build",
    "gns_tensor_phi",
    "gns_intertwiner",
    "commutant_dimension",
]

# Eigenvalues of a density factor at or below this are treated as zero rank.
GNS_EIG_CUTOFF = 1e-12
# Singular values above this count toward the rank in the commutant solve.
SV_RANK_CUTOFF = 1e-8
# Allowed disagreement between the two spanning-family Gram matrices.
GRAM_TOL = 1e-8
# Hard cap on the entry count of the stacked commutant system.
_COMMUTANT_ENTRY_CAP = 1 << 24


class FactorGns:
    """Purification data of one density factor.

    Eigenvalues above ``cutoff`` (finite and positive, else
    :class:`ValidationError`) count toward the rank.

    ``weights`` are the kept eigenvalues in descending order, ``vectors``
    their eigenvectors as columns, ``cyclic`` the purified vector in
    C^dim (x) C^rank (row-major), and ``frame`` its dim x rank reshape
    (so ``frame = vectors * sqrt(weights)``).
    """

    __slots__ = ("dim", "rank", "space_dim", "weights", "vectors", "cyclic",
                 "frame")

    def __init__(self, T: DensityFactor, cutoff: float = GNS_EIG_CUTOFF):
        if not (math.isfinite(cutoff) and cutoff > 0):
            raise ValidationError(
                f"eigenvalue cutoff {cutoff!r} is not a finite number > 0"
            )
        eigvals, eigvecs = np.linalg.eigh(T.matrix)
        order = np.argsort(eigvals, kind="stable")[::-1]
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        rank = int(np.sum(eigvals > cutoff))
        if rank == 0:
            raise ValidationError(
                "all eigenvalues below cutoff; not a trace-one matrix"
            )
        weights = eigvals[:rank]
        vectors = eigvecs[:, :rank]
        frame = vectors * np.sqrt(weights)
        self.dim = T.dim
        self.rank = rank
        self.space_dim = T.dim * rank
        self.weights = weights
        self.vectors = vectors
        self.frame = frame
        self.cyclic = frame.reshape(-1)

    def rep_unit(self, j: int, k: int) -> np.ndarray:
        """Image of the unit E_{jk}: E_{jk} (x) I_rank."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[j - 1, k - 1] = 1.0
        return np.kron(m, np.eye(self.rank, dtype=complex))

    def lambda_unit(self, j: int, k: int) -> np.ndarray:
        """rep(E_{jk}) applied to the cyclic vector: e_j (x) frame[k-1, :]."""
        e = np.zeros(self.dim, dtype=complex)
        e[j - 1] = 1.0
        return np.kron(e, self.frame[k - 1, :])


class GnsTriplet:
    """Hilbert space, representation, and cyclic vector of a product state.

    ``rep`` maps elements to matrices on the space; the cyclic vector has
    norm one and reproduces the state: <cyclic, rep(x) cyclic> = omega(x).
    Built either from factor purifications (:func:`gns_build`) or as the
    coproduct composition of two triplets (:func:`gns_tensor_phi`).
    """

    __slots__ = ("sig", "space_dim", "cyclic", "source_state",
                 "_unit_rep", "_unit_lambda")

    def __init__(self, sig: Signature, space_dim: int, cyclic: np.ndarray,
                 source_state: ProductStateTrunc,
                 unit_rep: Callable[[MatrixUnitIndex], np.ndarray],
                 unit_lambda: Callable[[MatrixUnitIndex], np.ndarray]):
        self.sig = sig
        self.space_dim = space_dim
        self.cyclic = cyclic
        self.source_state = source_state
        self._unit_rep = unit_rep
        self._unit_lambda = unit_lambda

    def _check_sig(self, x: AlgebraElement):
        if x.sig != self.sig:
            raise SignatureError(
                f"element signature {x.sig.dims} does not match "
                f"representation signature {self.sig.dims}"
            )

    def rep_unit(self, idx: MatrixUnitIndex) -> np.ndarray:
        return self._unit_rep(idx)

    def rep(self, x: AlgebraElement) -> np.ndarray:
        self._check_sig(x)
        out = np.zeros((self.space_dim, self.space_dim), dtype=complex)
        for idx, coeff in x.terms.items():
            out += coeff * self._unit_rep(idx)
        return out

    def lambda_unit(self, idx: MatrixUnitIndex) -> np.ndarray:
        return self._unit_lambda(idx)

    def lambda_vec(self, x: AlgebraElement) -> np.ndarray:
        self._check_sig(x)
        out = np.zeros(self.space_dim, dtype=complex)
        for idx, coeff in x.terms.items():
            out += coeff * self._unit_lambda(idx)
        return out

    def expectation(self, x: AlgebraElement) -> complex:
        """<cyclic, rep(x) cyclic> without materializing rep(x)."""
        return complex(np.vdot(self.cyclic, self.lambda_vec(x)))

    def __repr__(self):
        return (f"GnsTriplet(sig={self.sig.dims}, "
                f"space_dim={self.space_dim})")


def gns_build(S: ProductStateTrunc, cutoff: float = GNS_EIG_CUTOFF, *,
              guard: int = DENSE_DIM_GUARD) -> GnsTriplet:
    """GNS triplet of a product state as a tensor product of purifications.

    Space dimension is prod_i a_i * rank(T^{(i)}); refuses to build past
    ``guard``.  ``cutoff`` must be finite and positive (see
    :class:`FactorGns`).
    """
    factors = [FactorGns(f, cutoff) for f in S.factors]
    space_dim = 1
    for f in factors:
        space_dim *= f.space_dim
    if space_dim > guard:
        raise ResourceGuardError(
            f"GNS space dimension {space_dim} exceeds guard {guard}"
        )

    cyclic = np.array([1.0 + 0j])
    for f in factors:
        cyclic = np.kron(cyclic, f.cyclic)

    def unit_rep(idx: MatrixUnitIndex) -> np.ndarray:
        out = np.array([[1.0 + 0j]])
        for j, k, f in zip(idx.rows, idx.cols, factors):
            out = np.kron(out, f.rep_unit(j, k))
        return out

    def unit_lambda(idx: MatrixUnitIndex) -> np.ndarray:
        out = np.array([1.0 + 0j])
        for j, k, f in zip(idx.rows, idx.cols, factors):
            out = np.kron(out, f.lambda_unit(j, k))
        return out

    return GnsTriplet(S.sig, space_dim, cyclic, S, unit_rep, unit_lambda)


def _split_unit(idx: MatrixUnitIndex, level: int) -> tuple[MatrixUnitIndex, MatrixUnitIndex]:
    return (
        MatrixUnitIndex(idx.rows[:level], idx.cols[:level]),
        MatrixUnitIndex(idx.rows[level:], idx.cols[level:]),
    )


def gns_tensor_phi(GT: GnsTriplet, GR: GnsTriplet) -> GnsTriplet:
    """Compose two triplets through the coproduct.

    The result represents the fused stage (entrywise-product signature) on
    the tensor of the two spaces: x |-> (rep_T (x) rep_R)(phi(x)), with
    cyclic vector cyclic_T (x) cyclic_R.  Its cyclic state is the
    factorwise-Kronecker product state.
    """
    a, b = GT.sig, GR.sig
    fused = a.product(b)
    n = a.level
    space_dim = GT.space_dim * GR.space_dim
    cyclic = np.kron(GT.cyclic, GR.cyclic)
    source = state_boxtimes(GT.source_state, GR.source_state)

    def split(idx: MatrixUnitIndex) -> tuple[MatrixUnitIndex, MatrixUnitIndex]:
        y = coproduct_phi(matrix_unit(fused, idx.rows, idx.cols), a, b)
        ((out_idx, _),) = y.terms.items()
        return _split_unit(out_idx, n)

    def unit_rep(idx: MatrixUnitIndex) -> np.ndarray:
        ia, ib = split(idx)
        return np.kron(GT.rep_unit(ia), GR.rep_unit(ib))

    def unit_lambda(idx: MatrixUnitIndex) -> np.ndarray:
        ia, ib = split(idx)
        return np.kron(GT.lambda_unit(ia), GR.lambda_unit(ib))

    return GnsTriplet(fused, space_dim, cyclic, source, unit_rep, unit_lambda)


def gns_intertwiner(S: ProductStateTrunc, R: ProductStateTrunc,
                    level: int | None = None, *,
                    cutoff: float = GNS_EIG_CUTOFF,
                    guard: int = DENSE_DIM_GUARD,
                    gram_tol: float = GRAM_TOL) -> np.ndarray:
    """Unitary U with U Lambda_{S box R}(x) = (Lambda_S (x) Lambda_R)(phi(x)).

    Columns of the two spanning families are collected over all matrix
    units of the fused signature; U is the least-squares linear extension
    (pseudo-inverse).  Raises :class:`GramMismatchError` if the families'
    Gram matrices disagree beyond ``gram_tol`` or the space dimensions
    differ — either would mean the extension cannot be a well-defined
    unitary.  ``level`` optionally truncates both states first.
    """
    if level is not None:
        if level < 1 or level > S.level or level > R.level:
            raise SignatureError(
                f"level {level} not within both states' levels "
                f"({S.level}, {R.level})"
            )
        S = ProductStateTrunc(S.factors[:level])
        R = ProductStateTrunc(R.factors[:level])
    if S.level != R.level:
        raise SignatureError(f"levels differ: {S.level} vs {R.level}")

    G_fused = gns_build(state_boxtimes(S, R), cutoff, guard=guard)
    G_tensor = gns_tensor_phi(
        gns_build(S, cutoff, guard=guard), gns_build(R, cutoff, guard=guard)
    )
    if G_fused.space_dim != G_tensor.space_dim:
        raise GramMismatchError(
            f"GNS space dimensions differ: {G_fused.space_dim} vs "
            f"{G_tensor.space_dim} (eigenvalue rank at the cutoff boundary)"
        )

    units = list(all_matrix_units(G_fused.sig))
    A = np.column_stack([G_fused.lambda_unit(u) for u in units])
    B = np.column_stack([G_tensor.lambda_unit(u) for u in units])

    gram_defect = float(np.max(np.abs(A.conj().T @ A - B.conj().T @ B)))
    if gram_defect > gram_tol:
        raise GramMismatchError(
            f"spanning-family Gram matrices disagree by {gram_defect:.3e} "
            f"(> {gram_tol:.0e}); the linear extension is not isometric"
        )
    return B @ np.linalg.pinv(A)


def commutant_dimension(G: GnsTriplet, *, sv_cutoff: float = SV_RANK_CUTOFF,
                        guard: int = DENSE_DIM_GUARD) -> int:
    """Dimension of {X : [rep(E_u), X] = 0 for all matrix units E_u}.

    Stacks the vectorized commutator equations for every unit and counts
    the null space of the stack by singular values: dim = D^2 - rank,
    rank = #{sigma > sv_cutoff}.  Dimension 1 means the representation is
    irreducible.
    """
    D = G.space_dim
    if D * D > guard:
        raise ResourceGuardError(
            f"commutant system size {D}^2 exceeds guard {guard}"
        )
    n_units = G.sig.total_dim ** 2
    if n_units * D ** 4 > _COMMUTANT_ENTRY_CAP:
        raise ResourceGuardError(
            f"stacked commutant system would hold {n_units * D**4} entries"
        )
    eye = np.eye(D, dtype=complex)
    blocks = []
    for idx in all_matrix_units(G.sig):
        Ru = G.rep_unit(idx)
        blocks.append(np.kron(Ru, eye) - np.kron(eye, Ru.T))
    sv = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    rank = int(np.sum(sv > sv_cutoff))
    return D * D - rank
