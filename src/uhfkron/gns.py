"""GNS representations of product states at finite level, via purification.

Each density factor T on M_d is purified: with T = sum_t lambda_t v_t v_t*
and r the number of its kept eigenvalues, the factor space is C^d (x) C^r,
the factor representation is x |-> x (x) I_r, and the factor cyclic
vector is sum_t sqrt(lambda_t) v_t (x) e_t over the kept t, read off
the factor's own frame (``states.DensityFactor._frame``), so this
module decomposes nothing.  A :class:`GnsTriplet` is the tensor
product of such factors in space order, with the table pi0 of where
the images of the units sit.

The image of a matrix unit is a 0/1 partial permutation, so it is built
from integer positions.  pi0 is an int64 N x R table (D entries in all):
a unit whose row and column multi-indices have row-major flat indices i
and k has its ones at (pi0[i, t], pi0[k, t]) for t in 0..R-1, so the
positions of any number of units are one gather from pi0.  Factor l of
a product state has the space digits (a_l, r_l), its dimension and rank,
so the space has the digits (a_1, r_1, ..., a_L, r_L), and pi0[i, t] is
the flat index over them of the digits of i (over a_1..a_L) and of t
(over r_1..r_L), interleaved: the digit move ``algebra._digit_move``,
the one ``block_permutation`` makes of the coproduct's fused basis.
The triplet also tabulates the frame table C = cyclic[pi0] once
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

The coproduct composition of two triplets is (pi_T (x) pi_R) o phi.
Its space is the first space (x) the second, so on the concatenated
stage (a_1..a_L, b_1..b_L) its table is pi0_T D_R + pi0_R over the row
and rank indices of both; phi reads a fused index j = b(j' - 1) + j''
as the digits (a_1, b_1, ..., a_L, b_L), so the composed table is the
concatenated one with its rows moved by the same digit move.

The table pi0 is also the frame of the representation: with W the 0/1
matrix sending e_i (x) e_t to e_{pi0[i,t]}, rep(x) = W (x (x) I_R) W^T,
and a triplet checks when it is built that W is unitary: that pi0 is an
integer N x D/N table whose sorted entries are exactly 0..D-1.

The fused state's representation and the coproduct composition are one
representation in two digit orders.  Slot l of the fused triplet is one
factor of dimension a_l b_l and rank r_l s_l (its frame is the Kronecker
product of the frames of S_l and R_l), so its space has the digits (a_l,
b_l, r_l, s_l); the composition holds the factors of S, then those of R,
so its space has the digits (a_1, r_1, ..., a_L, r_L, b_1, s_1, ...,
b_L, s_L).  Moving the digits is the coproduct's own relabelling,
applied to the purified slots: it carries the fused rep(E_u) onto the
composed one exactly, each fused slot's cyclic vector onto the tensor
product of its operands' exactly, and so the fused cyclic vector onto
the composed one up to the rounding of the Kronecker chain over the
slots.  :func:`gns_intertwiner` returns that 0/1 permutation and
checks the second part: the two cyclic vectors agree within
``GRAM_TOL``, which bounds |U lambda_A(x) - lambda_B(x)| for every x.
It builds no triplet: it reads the dimensions, ranks and cyclic vectors
of the factor purifications of S, R and the fused state.

The triplet is fixed by the state, so a state keeps its own:
:func:`gns_build` makes it on the first call, stores it on the immutable
state, and returns that one object on every later call.  A triplet is
immutable and its arrays are read-only, so sharing it is safe.  A
composed triplet has no state to keep it on.  Likewise a density factor
keeps its purification frame, so each factor is purified once however
many builds and intertwiners read it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algebra import AlgebraElement, Signature, _digit_move, _guard
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
    """Purification data of one density factor, read off its frame.

    The rank counts the kept eigenvalues (above ``GNS_EIG_CUTOFF``): at
    least one, since a validated factor's largest eigenvalue is at least
    (1 - 1e-10)/dim; a boxtimes product's is the product of its operands'.

    ``frame`` (dim x rank, read-only, kept by the factor) holds the
    eigenvectors of the kept eigenvalues as columns in descending order,
    each scaled by the square root of its eigenvalue, or for a boxtimes
    product the Kronecker product of its operands' frames.  ``cyclic``
    is the purified vector in C^dim (x) C^rank, the row-major ravel of
    ``frame``.
    """

    __slots__ = ("dim", "rank", "space_dim", "cyclic", "frame")

    def __init__(self, T: DensityFactor):
        frame = T._frame()
        self.dim = T.dim
        self.rank = frame.shape[1]
        self.space_dim = T.dim * self.rank
        self.frame = frame
        self.cyclic = frame.reshape(-1)


class GnsTriplet:
    """Hilbert space, representation, and cyclic vector of a product state.

    Stored as data: factor purifications (:class:`FactorGns`) in space
    order and the table ``pi0`` (N x R, int64) of where the units' images
    sit (see the module notes).  ``cyclic`` is the Kronecker chain of the
    factors' cyclic vectors.  Every method takes an element of the
    triplet's signature (else :class:`SignatureError`), whose indices are
    in range by construction, and reads its images off the frame tables
    pi0 (positions of the ones of rep(E_u)) and C = cyclic[pi0], stored
    keyed only, at the rows of its terms' units u (see the module notes):
    :meth:`rep` scatters the coefficients to the positions,
    :meth:`lambda_vec` adds the rows of C up in term order, and
    :meth:`expectations` pairs the rows of C per term, coefficient left
    out.  The image of one unit is that of ``matrix_unit(sig, rows, cols)``.
    The cyclic vector has norm one and reproduces the state:
    <cyclic, rep(x) cyclic> = omega(x).  :func:`gns_build` and
    :func:`gns_tensor_phi` refuse a space dimension above
    ``DENSE_DIM_GUARD`` before they make ``pi0``, so a triplet's vectors
    and images stay small.  A table that is no representation is refused
    (see the module notes).

    A triplet is immutable, and so is every array it holds: a state keeps
    the one :func:`gns_build` made of it and hands it to every caller.
    """

    __slots__ = ("sig", "space_dim", "cyclic", "_factors", "_weights",
                 "_keyed_pi0", "_keyed_frame", "_keyed_conj")

    def __init__(self, sig: Signature, factors, pi0: np.ndarray):
        factors = tuple(factors)
        space_dim = math.prod(f.space_dim for f in factors)
        # W (D x N*R) is unitary iff pi0 is N x D/N with sorted entries
        # 0..D-1; a W that is not square is refused before any entry is read
        rank = pi0.shape[-1]
        columns = sig.total_dim * rank
        if (pi0.shape != (sig.total_dim, rank) or columns != space_dim
                or pi0.dtype.kind != "i"
                or not np.array_equal(np.sort(pi0, axis=None),
                                      np.arange(space_dim))):
            raise ValidationError(f"the frame [W_1 ... W_N] is {space_dim} "
                                  f"x {columns} and not unitary")
        cyclic = _kron_chain(factors)
        # the keyed tables: pi0, C = cyclic[pi0] and conj(C) after shift =
        # sum(weights) unused rows, so the row of a 1-based multi-index
        # idx (flat index idx @ weights - shift) is idx @ weights
        weights = np.array([math.prod(sig.dims[i + 1:])
                            for i in range(sig.level)], dtype=np.int64)
        shift = int(weights.sum())
        keyed_pi0 = np.zeros((shift + len(pi0), rank), dtype=np.int64)
        keyed_pi0[shift:] = pi0
        keyed_frame = cyclic.take(keyed_pi0)
        keyed_conj = keyed_frame.conj()
        for a in (cyclic, weights, keyed_pi0, keyed_frame, keyed_conj):
            a.setflags(write=False)
        for name, value in (("sig", sig), ("space_dim", space_dim),
                            ("cyclic", cyclic), ("_factors", factors),
                            ("_weights", weights), ("_keyed_pi0", keyed_pi0),
                            ("_keyed_frame", keyed_frame),
                            ("_keyed_conj", keyed_conj)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GnsTriplet is immutable")

    def __reduce__(self):
        # copies and pickles rebuild from the factors and pi0
        return GnsTriplet, (self.sig, self._factors,
                            self._keyed_pi0[self._weights.sum():])

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
        the coefficients, without materializing rep(x) or rep(x) cyclic.
        A non-finite coefficient gives a non-finite value, with no
        floating-point warning."""
        # numpy.vdot of the conjugate would need no errstate, but it moves
        # the sign of a zero part that dot keeps
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


def gns_build(S: ProductStateTrunc) -> GnsTriplet:
    """GNS triplet of a product state as a tensor product of purifications.

    Space dimension is prod_i a_i * rank(T^{(i)}), each rank counting the
    kept eigenvalues (see :class:`FactorGns`); refuses to build past
    ``DENSE_DIM_GUARD``.  pi0 is the digit move of the space digits
    (a_1, r_1, ..., a_L, r_L) (see the module notes).

    The triplet is made on the first call and kept on the state, which
    is immutable, so every later call returns that same (immutable)
    triplet; a refused build keeps nothing.  Copies and pickles of the
    state make their own.
    """
    try:
        return S._gns
    except AttributeError:
        pass
    factors = [FactorGns(f) for f in S.factors]
    legs = [n for f in factors for n in (f.dim, f.rank)]
    _guard("GNS space dimension", math.prod(legs))
    G = GnsTriplet(S.sig, factors,
                   _digit_move(legs).reshape(S.sig.total_dim, -1))
    object.__setattr__(S, "_gns", G)
    return G


def gns_tensor_phi(GT: GnsTriplet, GR: GnsTriplet) -> GnsTriplet:
    """Compose two triplets through the coproduct: (pi_T (x) pi_R) o phi.

    The result represents the fused stage (entrywise-product signature) on
    the tensor of the two spaces: x |-> (rep_T (x) rep_R)(phi(x)), with
    cyclic vector cyclic_T (x) cyclic_R.  Its cyclic state is the
    factorwise-Kronecker product state.  Its table is the concatenated
    triplet's, pi0_T D_R + pi0_R, with the rows moved from the block
    digits (a_1..a_L, b_1..b_L) to the fused (a_1, b_1, ..., a_L, b_L) by
    the digit move of ``block_permutation``.  Refuses a space dimension
    above ``DENSE_DIM_GUARD``.
    """
    fused = GT.sig.product(GR.sig)
    _guard("GNS space dimension", GT.space_dim * GR.space_dim)
    pi_T, pi_R = (G._keyed_pi0[G._weights.sum():] for G in (GT, GR))
    # pi_T[i_T, t_T] D_R + pi_R[i_R, t_R] at row (i_T, i_R), column (t_T, t_R)
    block = np.add.outer(pi_T * GR.space_dim, pi_R).transpose(
        0, 2, 1, 3).reshape(fused.total_dim, -1)
    pi0 = np.empty_like(block)
    pi0[_digit_move([n for pair in zip(GT.sig.dims, GR.sig.dims)
                     for n in pair])] = block
    return GnsTriplet(fused, GT._factors + GR._factors, pi0)


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

    rep(E_ij) has its ones exactly at (pi0[i, t], pi0[j, t]) for t in
    0..R-1, so rep(E_ij) = W (E_ij (x) I_R) W^T with W the 0/1 matrix of
    pi0, which the triplet checked to be a permutation when it was built.
    The commutant is then W (I_N (x) M_R) W^T, of dimension R^2 (1:
    irreducible).  No unit image is read.
    """
    return G._keyed_pi0.shape[1] ** 2
