"""GNS representations of product states at finite level, via purification.

Each density factor T on M_d is purified: with T = sum_t lambda_t v_t v_t*
and r the number of its kept eigenvalues, the factor space is C^d (x) C^r,
the factor representation is x |-> x (x) I_r, and the factor cyclic
vector is sum_t sqrt(lambda_t) v_t (x) e_t over the kept t, all read off
the factor's own spectrum (``states.DensityFactor._spectrum``), so this
module decomposes nothing.  A :class:`GnsTriplet` is the tensor
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
rep(E_u) cyclic is cyclic[col_u + o_t] written at row_u + o_t.  A triplet
tabulates pi0 = row_u + o (N x R, D entries in all) once, one row per row
multi-index, at its row-major flat index.  A unit whose row and column
multi-indices have flat indices i and k has its ones at (pi0[i, t],
pi0[k, t]), so the positions of any number of units are one gather from
pi0.  The triplet also tabulates the frame table C = cyclic[pi0] once
(complex, N x R, again D entries) and its conjugate: rep(E_u) cyclic is
C[k] written at pi0[i], and <cyclic, rep(E_u) cyclic> = sum_t conj(C[i,
t]) C[k, t].  The three tables are keyed: each is stored after shift =
sum_s w_s unused rows, w the row-major weights of the signature, so a
1-based multi-index idx reads its row at idx @ w, with no subtraction.
A triplet reads only elements, whose indices the element constructor has
range-checked, and an element's images are one scatter or gather each
over the keyed rows of its terms' units: ``expectations`` gathers the
rows of conj(C) at the terms' row keys and of C at their column keys,
and expectation(x) = sum_u c_u <cyclic, rep(E_u) cyclic> over its terms
c_u E_u.  One unit's image is that of the one-term element
``matrix_unit``.

The table pi0 is also the frame of the representation: with W the 0/1
matrix sending e_i (x) e_t to e_{pi0[i,t]}, rep(x) = W (x (x) I_R) W^T,
and a triplet checks when it is built that W is unitary, that is, that
pi0 holds each of 0..D-1 once (two factors reading one digit fail).

The fused state's representation and the coproduct composition are one
representation in two digit orders.  Slot l of the fused triplet is one
factor of dimension a_l b_l and rank r_l s_l (the ranks of S_l and R_l,
carried by the boxtimes product), so its space has the digits (a_l, b_l,
r_l, s_l); the composition holds the factors of S, then those of R, so
its space has the digits (a_1, r_1, ..., a_L, r_L, b_1, s_1, ..., b_L,
s_L).  Moving the digits is the coproduct's own relabelling, applied to
the purified slots: it carries the fused rep(E_u) onto the composed one
exactly, and the fused cyclic vector onto the composed one up to
rounding.  :func:`gns_intertwiner` returns that 0/1 permutation and
checks the second part: the two cyclic vectors agree within
``GRAM_TOL``, which bounds |U lambda_A(x) - lambda_B(x)| for every x.
It builds no triplet: it reads the dimensions, ranks and cyclic vectors
of the factor purifications of S, R and the fused state.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algebra import AlgebraElement, Signature, _digit_move, _guard, _integer
from .errors import GramMismatchError, SignatureError, ValidationError
from .states import DensityFactor, ProductStateTrunc, state_boxtimes

__all__ = [
    "GRAM_TOL",
    "FactorGns",
    "GnsTriplet",
    "gns_build",
    "gns_tensor_phi",
    "gns_intertwiner",
    "commutant_dimension",
]

# Allowed disagreement between the two cyclic vectors, entry by entry.
GRAM_TOL = 1e-8


class FactorGns:
    """Purification data of one density factor, read off its spectrum.

    The rank counts the kept eigenvalues (above ``GNS_EIG_CUTOFF``): at
    least one, since a validated factor's largest eigenvalue is at least
    (1 - 1e-10)/dim and a boxtimes product keeps its operands' products.

    ``frame`` (dim x rank) holds the eigenvectors of the kept eigenvalues
    as columns, each scaled by the square root of its eigenvalue: in
    descending eigenvalue order for a decomposed factor, in its operands'
    Kronecker order for a boxtimes product.  ``cyclic`` is the purified
    vector in C^dim (x) C^rank, the row-major ravel of ``frame``.
    """

    __slots__ = ("dim", "rank", "space_dim", "cyclic", "frame")

    def __init__(self, T: DensityFactor):
        values, vectors, kept = T._spectrum()
        frame = vectors[:, kept] * np.sqrt(values[kept])
        self.dim = T.dim
        self.rank = frame.shape[1]
        self.space_dim = T.dim * self.rank
        self.frame = frame
        self.cyclic = frame.reshape(-1)


class GnsTriplet:
    """Hilbert space, representation, and cyclic vector of a product state.

    Stored as data: factor purifications (:class:`FactorGns`) in space
    order, each with the place ``(slot, stride, radix)`` it reads; on a unit
    with index j at ``slot`` the factor takes its unit index
    (j - 1) // stride % radix + 1.  ``cyclic`` is the Kronecker chain of
    the factors' cyclic vectors.  Every method takes an element of the
    triplet's signature (else :class:`SignatureError`), whose indices are
    in range by construction, and reads its images off the frame tables
    pi0 (positions of the ones of rep(E_u)) and C = cyclic[pi0], stored
    keyed only, at the rows of its terms' units u (see the module notes):
    :meth:`rep` scatters the coefficients to the positions,
    :meth:`lambda_vec` adds the rows of C up in term order, and
    :meth:`expectations` pairs the rows of C per term, coefficient left
    out.  The image of one unit is that of ``matrix_unit(sig, rows, cols)``.
    The cyclic vector has norm one and reproduces the state:
    <cyclic, rep(x) cyclic> = omega(x).  A space dimension above
    ``DENSE_DIM_GUARD`` is refused, so a triplet's vectors and images stay
    small.  ``places`` holds one place per factor (slot in 0..level-1,
    stride and radix in 1..dim of the slot), and a triplet that is no
    representation is refused (see the module notes).
    """

    __slots__ = ("sig", "space_dim", "cyclic", "_factors", "_places",
                 "_weights", "_keyed_pi0", "_keyed_frame", "_keyed_conj")

    def __init__(self, sig: Signature, factors, places):
        self.sig = sig
        self._factors = tuple(factors)
        self._places = tuple(_place(sig, place, k)
                             for k, place in enumerate(places, start=1))
        if len(self._places) != len(self._factors):
            raise ValidationError(f"{len(self._places)} places for "
                                  f"{len(self._factors)} factors")
        dims = [f.space_dim for f in self._factors]
        self.space_dim = math.prod(dims)
        _guard("GNS space dimension", self.space_dim)
        self.cyclic = _kron_chain(self._factors)
        strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
        ranks = [f.rank for f in self._factors]
        # W is D x N*R, and unitary iff square with pi0 holding each of
        # 0..D-1 once; a non-square W is refused before pi0 is built
        columns = sig.total_dim * math.prod(ranks)
        if columns != self.space_dim:
            raise _not_unitary(self.space_dim, columns)
        # pi0[i] is row_u + o for the unit rows of row-major flat index i,
        # with row_u = sum_f j_f r_f s_f and o_t = sum_f t_f s_f over all t
        per_slot = [np.zeros(d, dtype=np.int64) for d in sig.dims]
        for (slot, stride, radix), r, s in zip(self._places, ranks, strides):
            per_slot[slot] += np.arange(sig.dims[slot]) // stride % radix * r * s
        pi0 = functools.reduce(np.add.outer, per_slot + [
            s * np.arange(r) for s, r in zip(strides, ranks)]).reshape(
                sig.total_dim, -1)
        # pi0 has D entries: they are 0..D-1 once each iff none is D or
        # more and none repeats
        counts = np.bincount(pi0.ravel())
        if len(counts) != self.space_dim or counts.max() != 1:
            raise _not_unitary(self.space_dim, columns)
        # the keyed tables: pi0, C = cyclic[pi0] and conj(C) after shift =
        # sum(_weights) unused rows, so the row of a 1-based multi-index
        # idx (flat index idx @ _weights - shift) is idx @ _weights
        self._weights = np.array([math.prod(sig.dims[i + 1:])
                                  for i in range(sig.level)], dtype=np.int64)
        shift = int(self._weights.sum())
        self._keyed_pi0 = np.zeros((shift + len(pi0), pi0.shape[1]),
                                   dtype=np.int64)
        self._keyed_pi0[shift:] = pi0
        self._keyed_frame = self.cyclic.take(self._keyed_pi0)
        self._keyed_conj = self._keyed_frame.conj()

    def _keys(self, x: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
        # the keyed-table rows of the terms of x: their row multi-indices'
        # and their column multi-indices' (an equal signature is most
        # often the same object, which is cheaper to compare)
        if x.sig is not self.sig and x.sig != self.sig:
            raise SignatureError(
                f"element signature {x.sig.dims} does not match "
                f"representation signature {self.sig.dims}"
            )
        return x.rows.dot(self._weights), x.cols.dot(self._weights)

    def rep(self, x: AlgebraElement) -> np.ndarray:
        i, k = self._keys(x)
        out = np.zeros((self.space_dim, self.space_dim), dtype=complex)
        # distinct units never share a position
        out[self._keyed_pi0.take(i, axis=0),
            self._keyed_pi0.take(k, axis=0)] = x.coeff[:, None]
        return out

    def lambda_vec(self, x: AlgebraElement) -> np.ndarray:
        i, k = self._keys(x)
        out = np.zeros(self.space_dim, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            # numpy.add.at adds one term after another, in term order
            np.add.at(out, self._keyed_pi0.take(i, axis=0),
                      x.coeff[:, None] * self._keyed_frame.take(k, axis=0))
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def expectation(self, x: AlgebraElement) -> complex:
        """<cyclic, rep(x) cyclic> = sum_u c_u <cyclic, rep(E_u) cyclic>
        over the terms c_u E_u of ``x``: :meth:`expectations` weighted by
        the coefficients, without materializing rep(x) or rep(x) cyclic."""
        return complex(self.expectations(x).dot(x.coeff))

    def expectations(self, x: AlgebraElement) -> np.ndarray:
        """<cyclic, rep(E_u) cyclic> for the unit u of every term of ``x``,
        in term order, its coefficient left out: the sum over t of
        conj(C[i, t]) C[k, t] for the frame table C = cyclic[pi0] and the
        flat indices i, k of the unit's row and column, with no image
        vector built."""
        i, k = self._keys(x)
        return np.add.reduce(self._keyed_conj.take(i, axis=0)
                             * self._keyed_frame.take(k, axis=0), axis=1)

    def __repr__(self):
        return (f"GnsTriplet(sig={self.sig.dims}, "
                f"space_dim={self.space_dim})")


def _kron_chain(factors) -> np.ndarray:
    # the Kronecker chain of the factors' cyclic vectors, numpy.kron's bits
    return functools.reduce(np.multiply.outer, [f.cyclic for f in factors],
                            np.ones(1, dtype=complex)).ravel()


def _not_unitary(space_dim: int, columns: int) -> ValidationError:
    # the refusal of a frame [W_1 ... W_N] that is no unitary
    return ValidationError(f"the frame [W_1 ... W_N] is {space_dim} x "
                           f"{columns} and not unitary")


def _place(sig: Signature, place, k: int) -> tuple[int, int, int]:
    # place k (1-based) as int (slot, stride, radix), slot in 0..level-1,
    # stride and radix in 1..dim of the slot, else ValidationError
    if len(place) != 3:
        raise ValidationError(f"place {place!r} of factor {k} is no triple")
    where = f" of factor {k}"
    slot = _integer(place[0], ValidationError, "place slot", where, low=0,
                    high=sig.level - 1)
    return (slot,) + tuple(
        _integer(v, ValidationError, f"place {what}", where, low=1,
                 high=sig.dims[slot])
        for v, what in zip(place[1:], ("stride", "radix")))


def gns_build(S: ProductStateTrunc) -> GnsTriplet:
    """GNS triplet of a product state as a tensor product of purifications.

    Space dimension is prod_i a_i * rank(T^{(i)}), each rank counting the
    kept eigenvalues (see :class:`FactorGns`); refuses to build past
    ``DENSE_DIM_GUARD``.  Factor i reads the whole index of slot i.
    """
    factors = [FactorGns(f) for f in S.factors]
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
    places.  Refuses a space dimension above ``DENSE_DIM_GUARD``.
    """
    fused = GT.sig.product(GR.sig)
    b = GR.sig.dims
    places = [(s, t * b[s], r) for s, t, r in GT._places] + list(GR._places)
    return GnsTriplet(fused, GT._factors + GR._factors, places)


def gns_intertwiner(S: ProductStateTrunc, R: ProductStateTrunc) -> np.ndarray:
    """Unitary U with U Lambda_{S box R}(x) = (Lambda_S (x) Lambda_R)(phi(x)).

    U is the exact 0/1 permutation of the purified slots' digits (see the
    module notes), as a dense complex D x D array, with no triplet built.
    Raises :class:`SignatureError` on state levels that differ,
    :class:`ResourceGuardError` on D above ``DENSE_DIM_GUARD``, and
    :class:`GramMismatchError` if U maps the fused cyclic vector onto the
    composed one only beyond ``GRAM_TOL`` in some entry.
    """
    fused = state_boxtimes(S, R)
    F_S, F_R = ([FactorGns(f) for f in state.factors] for state in (S, R))
    # the digits (a_l, b_l, r_l, s_l) of each fused slot: 2L interleaved pairs
    legs = [n for f, g in zip(F_S, F_R)
            for n in (f.dim, g.dim, f.rank, g.rank)]
    D = math.prod(legs)
    _guard("GNS space dimension", D)
    moved = _digit_move(legs)
    cyclic_defect = float(np.max(np.abs(
        _kron_chain(F_S + F_R)
        - _kron_chain([FactorGns(f) for f in fused.factors])[moved])))
    if cyclic_defect > GRAM_TOL:
        raise GramMismatchError(
            f"cyclic vectors disagree by {cyclic_defect:.3e} "
            f"(> {GRAM_TOL:.0e}); the permutation does not intertwine them"
        )
    U = np.zeros((D, D), dtype=complex)
    U[np.arange(D), moved] = 1
    return U


def commutant_dimension(G: GnsTriplet) -> int:
    """Dimension of {X : [rep(E_u), X] = 0 for all matrix units E_u}.

    By the definition of the lookup, rep(E_ij) has its ones exactly at
    (pi0[i, t], pi0[j, t]) for t in 0..R-1, so rep(E_ij) = W (E_ij (x) I_R)
    W^T with W the permutation matrix of pi0, which the triplet checked
    when it was built.  The commutant is then W (I_N (x) M_R) W^T, of
    dimension R^2 (1: irreducible).  No unit image is read.
    """
    return G._keyed_pi0.shape[1] ** 2
