"""GNS representations of product states at finite level, via purification.

Each density factor T on M_d is purified: with T = sum_t lambda_t v_t v_t*
and r = #{lambda_t > cutoff}, the factor space is C^d (x) C^r, the factor
representation is x |-> x (x) I_r, and the factor cyclic vector is
sum_t sqrt(lambda_t) v_t (x) e_t.  A :class:`GnsTriplet` is the tensor
product of such factors in space order, each reading one digit of the
element's unit indices: its place ``(slot, stride, radix)`` picks the digit
``(j - 1) // stride % radix`` of the index j at ``slot``.  A product
state's triplet has one factor per slot reading the whole index.  The
coproduct composition of two triplets concatenates their factors and
relabels the first triplet's places to the high digits of the fused slots,
since j = b*(j' - 1) + j'' there.

The image of a matrix unit is a 0/1 partial permutation, so it is built
from integer positions.  With j_f, k_f the 0-based digits factor f reads,
r_f its rank and s_f its stride in the space, rep(E_u) has its ones at
(row_u + o_t, col_u + o_t), where row_u = sum_f j_f r_f s_f, col_u =
sum_f k_f r_f s_f and o_t = sum_f t_f s_f for t in prod_f [r_f]; and
rep(E_u) cyclic is cyclic[col_u + o_t] written at row_u + o_t.  Images of
unit sequences and of elements are one scatter or gather each over these
positions.

The map sending an element x to rep(x) applied to the cyclic vector spans
the whole space, so a second representation of the same state determines a
unique unitary between the two spans.  :func:`gns_intertwiner` builds that
unitary between the representation of the factorwise-Kronecker state and
the coproduct composition of the two separate representations, checking
well-definedness (equality of the Gram matrices of the two spanning
families) instead of assuming it.  The unitary is the exact linear
extension B A^+, where the columns of A and B are the two spanning
families.  The rows of A are orthogonal: for one factor, A A^H is
I_d (x) conj(frame^H frame) = I_d (x) diag(weights), because the frame's
columns are orthogonal eigenvectors scaled by sqrt(weights); the fused
state's A is the tensor product of its slots' families up to a column
order, which A A^H does not see, and a tensor product of diagonals is
diagonal.  So A A^H = diag(nu), each nu a product of kept eigenvalues
and so positive: A has full row rank and A^+ = A^H diag(1/nu) in closed
form.

:func:`commutant_dimension` measures irreducibility: it certifies, in
exact 0/1 arithmetic, a unitary W with rep(x) = W (x (x) I_m) W^H, so the
commutant is W (I (x) M_m) W^H, of dimension m^2.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .algebra import (
    DENSE_DIM_GUARD,
    AlgebraElement,
    MatrixUnitIndex,
    Signature,
    _unit_index_rows,
    all_matrix_units,
)
from .errors import (
    GramMismatchError,
    IndexRangeError,
    ResourceGuardError,
    SignatureError,
    ValidationError,
)
from .states import DensityFactor, ProductStateTrunc, state_boxtimes

__all__ = [
    "GNS_EIG_CUTOFF",
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
# Allowed disagreement between the two spanning-family Gram matrices.
GRAM_TOL = 1e-8
# Hard cap on the entry count of each intertwiner spanning family.
_SYSTEM_ENTRY_CAP = 1 << 24


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

    def _index(self, j: int, k: int) -> tuple[int, int]:
        # 0-based indices of the one unit E_{jk}
        for name, v in (("row", j), ("column", k)):
            if not (isinstance(v, numbers.Integral) and 1 <= v <= self.dim):
                raise IndexRangeError(
                    f"{name} index {v!r} is not an integer in 1..{self.dim}"
                )
        return j - 1, k - 1

    def rep_unit(self, j: int, k: int) -> np.ndarray:
        """Image of the unit E_{jk}: E_{jk} (x) I_rank."""
        j, k = self._index(j, k)
        d, r = self.dim, self.rank
        out = np.zeros((d, r, d, r), dtype=complex)
        out[j, :, k, :] = np.eye(r)
        return out.reshape(d * r, d * r)

    def lambda_unit(self, j: int, k: int) -> np.ndarray:
        """rep(E_{jk}) applied to the cyclic vector: e_j (x) frame[k-1, :]."""
        j, k = self._index(j, k)
        out = np.zeros((self.dim, self.rank), dtype=complex)
        out[j] = self.frame[k]
        return out.reshape(-1)


class GnsTriplet:
    """Hilbert space, representation, and cyclic vector of a product state.

    Stored as data: factor purifications (:class:`FactorGns`) in space
    order, each with the place ``(slot, stride, radix)`` it reads; on a unit
    with index j at ``slot`` the factor takes its unit index
    (j - 1) // stride % radix + 1.  ``cyclic`` is the Kronecker chain of
    the factors' cyclic vectors.  Every image is read off the positions of
    the ones of rep(E_u) (see the module notes): :meth:`rep_units` sets
    them in a zero stack, :meth:`lambda_units` gathers the cyclic vector at
    them, :meth:`rep` scatters an element's coefficients to them and
    :meth:`lambda_vec` adds the gathered values up in term order;
    :meth:`rep_unit` and :meth:`lambda_unit` are the one-unit case.
    The cyclic vector has norm one and reproduces the state:
    <cyclic, rep(x) cyclic> = omega(x).
    """

    __slots__ = ("sig", "space_dim", "cyclic", "_factors", "_places",
                 "_weights", "_offsets")

    def __init__(self, sig: Signature, factors, places):
        self.sig = sig
        self._factors = tuple(factors)
        self._places = tuple(places)
        self.cyclic = np.ones(1, dtype=complex)
        for f in self._factors:
            self.cyclic = np.kron(self.cyclic, f.cyclic)
        self.space_dim = self.cyclic.size
        dims = [f.space_dim for f in self._factors]
        strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
        ranks = [f.rank for f in self._factors]
        # row_u = sum_f j_f r_f s_f, and o_t = sum_f t_f s_f over all t
        self._weights = np.array(ranks) * strides
        self._offsets = functools.reduce(np.add.outer, [
            s * np.arange(r) for s, r in zip(strides, ranks)]).ravel()

    def _positions(self, units) -> tuple[np.ndarray, np.ndarray]:
        # (N, R) rows and columns of the ones of rep(E_u) for each unit u
        # of units, which pass the range check of _indices first
        idx = self._indices(units)
        slot, stride, radix = np.array(self._places).T
        row, col = (idx[:, side][:, slot] // stride % radix @ self._weights
                    for side in (0, 1))
        return row[:, None] + self._offsets, col[:, None] + self._offsets

    def _indices(self, units) -> np.ndarray:
        # 0-based (N, 2, level) index array of a sequence of matrix units
        level = self.sig.level
        try:
            idx = np.asarray(units)
        except ValueError:  # ragged: slot counts differ
            idx = None
        if idx is None or idx.ndim != 3 or idx.shape[1:] != (2, level):
            raise SignatureError(
                f"expected matrix units with {level} row and column "
                f"indices each (signature {self.sig.dims})"
            )
        if idx.dtype.kind not in "iu":
            raise IndexRangeError(
                f"matrix-unit indices are not all machine integers "
                f"(array dtype {idx.dtype})"
            )
        bad = (idx < 1) | (idx > np.array(self.sig.dims))
        if bad.any():
            n, side, pos = np.argwhere(bad)[0]
            raise IndexRangeError(
                f"{('row', 'column')[side]} index {idx[n, side, pos]} "
                f"outside 1..{self.sig.dims[pos]} at factor {pos + 1}"
            )
        return idx - 1

    def _units_of(self, x: AlgebraElement) -> np.ndarray:
        # the terms of x as a (T, 2, level) array of units
        if x.sig != self.sig:
            raise SignatureError(
                f"element signature {x.sig.dims} does not match "
                f"representation signature {self.sig.dims}"
            )
        return np.stack([x.rows, x.cols], axis=1)

    def rep_units(self, units) -> np.ndarray:
        """rep(E_u) for every unit u of ``units``, stacked on axis 0.

        ``units`` is a sequence of :class:`MatrixUnitIndex` (or of
        (rows, cols) pairs); an index outside 1..a_i raises
        :class:`IndexRangeError`, a wrong slot count :class:`SignatureError`.
        """
        rows, cols = self._positions(units)
        n = len(rows)
        out = np.zeros((n, self.space_dim, self.space_dim), dtype=complex)
        out[np.arange(n)[:, None], rows, cols] = 1
        return out

    def rep_unit(self, idx: MatrixUnitIndex) -> np.ndarray:
        return self.rep_units([idx])[0]

    def rep(self, x: AlgebraElement) -> np.ndarray:
        rows, cols = self._positions(self._units_of(x))
        out = np.zeros((self.space_dim, self.space_dim), dtype=complex)
        # distinct units never share a position
        out[rows, cols] = x.coeff[:, None]
        return out

    def lambda_units(self, units) -> np.ndarray:
        """rep(E_u) cyclic for every unit u of ``units``, stacked on axis 0
        (``units`` as in :meth:`rep_units`)."""
        rows, cols = self._positions(units)
        out = np.zeros((len(rows), self.space_dim), dtype=complex)
        out[np.arange(len(rows))[:, None], rows] = self.cyclic[cols]
        return out

    def lambda_unit(self, idx: MatrixUnitIndex) -> np.ndarray:
        return self.lambda_units([idx])[0]

    def lambda_vec(self, x: AlgebraElement) -> np.ndarray:
        rows, cols = self._positions(self._units_of(x))
        out = np.zeros(self.space_dim, dtype=complex)
        # numpy.add.at adds one term after another, in term order
        np.add.at(out, rows, x.coeff[:, None] * self.cyclic[cols])
        return out

    def expectation(self, x: AlgebraElement) -> complex:
        """<cyclic, rep(x) cyclic> without materializing rep(x)."""
        return complex(np.vdot(self.cyclic, self.lambda_vec(x)))

    def __repr__(self):
        return (f"GnsTriplet(sig={self.sig.dims}, "
                f"space_dim={self.space_dim})")


def gns_build(S: ProductStateTrunc,
              cutoff: float = GNS_EIG_CUTOFF) -> GnsTriplet:
    """GNS triplet of a product state as a tensor product of purifications.

    Space dimension is prod_i a_i * rank(T^{(i)}); refuses to build past
    ``DENSE_DIM_GUARD``.  ``cutoff`` must be finite and positive (see
    :class:`FactorGns`).  Factor i reads the whole index of slot i.
    """
    factors = [FactorGns(f, cutoff) for f in S.factors]
    space_dim = math.prod(f.space_dim for f in factors)
    if space_dim > DENSE_DIM_GUARD:
        raise ResourceGuardError(
            f"GNS space dimension {space_dim} exceeds guard {DENSE_DIM_GUARD}"
        )
    return GnsTriplet(S.sig, factors,
                      [(i, 1, f.dim) for i, f in enumerate(factors)])


def gns_tensor_phi(GT: GnsTriplet, GR: GnsTriplet) -> GnsTriplet:
    """Compose two triplets through the coproduct.

    The result represents the fused stage (entrywise-product signature) on
    the tensor of the two spaces: x |-> (rep_T (x) rep_R)(phi(x)), with
    cyclic vector cyclic_T (x) cyclic_R.  Its cyclic state is the
    factorwise-Kronecker product state.  Since a fused index splits as
    j = b*(j' - 1) + j'', the factors of ``GT`` read the high digit of each
    fused slot (their strides scale by b) and those of ``GR`` keep their
    places.
    """
    fused = GT.sig.product(GR.sig)
    b = GR.sig.dims
    places = [(s, t * b[s], r) for s, t, r in GT._places] + list(GR._places)
    return GnsTriplet(fused, GT._factors + GR._factors, places)


def gns_intertwiner(S: ProductStateTrunc, R: ProductStateTrunc) -> np.ndarray:
    """Unitary U with U Lambda_{S box R}(x) = (Lambda_S (x) Lambda_R)(phi(x)).

    The columns of the two spanning families A (fused) and B (composed)
    are the images of all matrix units of the fused signature, in
    :func:`all_matrix_units` order; U = B A^+ is the linear extension.  The
    rows of A are orthogonal (A A^H = diag(nu), nu the squared row norms;
    see the module notes), so U = (B A^H) / nu exactly, with no
    pseudo-inverse solve.  Raises :class:`GramMismatchError` if the
    families' Gram matrices disagree beyond ``GRAM_TOL`` or the space
    dimensions differ — either would mean the extension cannot be a
    well-defined unitary — and :class:`ResourceGuardError` if a family
    would hold more than 2^24 entries.  Ranks are taken at
    ``GNS_EIG_CUTOFF``.
    """
    if S.level != R.level:
        raise SignatureError(f"levels differ: {S.level} vs {R.level}")

    G_fused = gns_build(state_boxtimes(S, R))
    G_tensor = gns_tensor_phi(gns_build(S), gns_build(R))
    if G_fused.space_dim != G_tensor.space_dim:
        raise GramMismatchError(
            f"GNS space dimensions differ: {G_fused.space_dim} vs "
            f"{G_tensor.space_dim} (eigenvalue rank at the cutoff boundary)"
        )

    n_units = G_fused.sig.total_dim ** 2
    if n_units * G_fused.space_dim > _SYSTEM_ENTRY_CAP:
        raise ResourceGuardError(
            f"spanning families would hold {n_units * G_fused.space_dim} "
            f"entries each"
        )
    units = list(all_matrix_units(G_fused.sig))
    A = G_fused.lambda_units(units).T
    B = G_tensor.lambda_units(units).T

    gram_defect = float(np.max(np.abs(A.conj().T @ A - B.conj().T @ B)))
    if gram_defect > GRAM_TOL:
        raise GramMismatchError(
            f"spanning-family Gram matrices disagree by {gram_defect:.3e} "
            f"(> {GRAM_TOL:.0e}); the linear extension is not isometric"
        )
    # A A^H = diag(nu) with nu > 0, so A^+ = A^H diag(1/nu)
    nu = np.sum(A.real ** 2 + A.imag ** 2, axis=1)
    return (B @ A.conj().T) / nu


def commutant_dimension(G: GnsTriplet) -> int:
    """Dimension of {X : [rep(E_u), X] = 0 for all matrix units E_u}.

    Exact certificate, as unit images are 0/1 matrices: with N =
    ``G.sig.total_dim``, s the support of diag rep(E_11), m = len(s),
    W_i = rep(E_i1)[:, s] and W = [W_1 ... W_N], check that W is a square
    unitary and that rep(E_ij) = W_i W_j^H for all i, j.  Then rep(E_ij) =
    W (E_ij (x) I_m) W^H, so rep is equivalent to x |-> x (x) I_m and its
    commutant W (I_N (x) M_m) W^H has dimension m^2 (1: irreducible).  A
    failed check raises :class:`ValidationError`, naming the frame or the
    first failing row of units, and no number is returned.  Refuses a
    space dimension D with D^2 > ``DENSE_DIM_GUARD``.
    """
    D = G.space_dim
    if D * D > DENSE_DIM_GUARD:
        raise ResourceGuardError(
            f"commutant system size {D}^2 exceeds guard {DENSE_DIM_GUARD}"
        )
    N = G.sig.total_dim
    rows = list(_unit_index_rows(G.sig))
    W = G.rep_units([row[0] for row in rows])  # rep(E_i1) for each row i
    W = W[:, :, np.flatnonzero(np.diagonal(W[0]))]  # W[i] = W_i, D x m
    m = W.shape[2]
    frame = W.transpose(1, 0, 2).reshape(D, N * m)  # [W_1 ... W_N]
    if N * m != D or not np.array_equal(frame.conj().T @ frame, np.eye(D)):
        raise ValidationError(
            f"the frame [W_1 ... W_N] is {D} x {N * m} and not unitary"
        )
    WH = W.transpose(0, 2, 1).conj()
    for i, row in enumerate(rows):
        if not np.array_equal(G.rep_units(row), W[i] @ WH):
            raise ValidationError(
                f"row {row[0].rows} of unit images fails the certificate"
            )
    return m * m
