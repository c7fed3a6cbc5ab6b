"""GNS representations of product states at finite level, via purification.

Each density factor T on M_d is purified: with T = sum_t lambda_t v_t v_t*
and r the number of its kept eigenvalues, the factor space is C^d (x) C^r,
the factor representation is x |-> x (x) I_r, and the factor cyclic
vector is sum_t sqrt(lambda_t) v_t (x) e_t over the kept t, the
row-major ravel of the factor's own d x r frame
(``states.DensityFactor._frame``), so this module decomposes nothing.
A :class:`GnsTriplet` is the tensor product of its density factors in
space order; everything else it holds follows from their frames.

The image of a matrix unit is a 0/1 partial permutation, so it is built
from integer positions.  pi0 is an int64 N x R table (D entries in all):
a unit whose row and column multi-indices have row-major flat indices i
and k has its ones at (pi0[i, t], pi0[k, t]) for t in 0..R-1, so the
positions of any number of units are one gather from pi0.  A triplet of
k operands at level L holds kL factors in space order, operand g's slot
l at place gL + l, and the space has the digits (a_f, r_f), factor f's
frame shape, in that order.  pi0 is the digit move
``sweeps._digit_move`` of these digits to the row digits (the operands'
a at slot 1, then at slot 2, ...) and then every rank digit in order:
arange(D) laid out over them and transposed, so pi0[i, t] is the flat
index of the digits of i and of t.  For one operand that order is the
move's default, (a_1, ..., a_L, r_1, ..., r_L), the one
``block_permutation`` makes of the coproduct's fused basis.  The
triplet also tabulates the frame table C = cyclic[pi0] once
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
Its space is the first space (x) the second, so its factors are the
first's, then the second's.  phi reads a fused index j = b(j' - 1) + j''
as the digits (a_1, b_1, ..., a_L, b_L), slot by slot and operand by
operand, which is the row order above: the composition is the triplet
of the concatenated factors on the fused signature, and so is every
bracketing of three or more.

The table pi0 is also the frame of the representation: with W the 0/1
matrix sending e_i (x) e_t to e_{pi0[i,t]}, rep(x) = W (x (x) I_R) W^T,
and W is a permutation by construction, since pi0 is a transpose of
arange(D).

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
It builds no triplet: it reads the frames of the factors of S, R and
the fused state.

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

from .algebra import AlgebraElement, Signature
from .errors import (
    GramMismatchError,
    SignatureError,
    ValidationError,
    _guard,
)
from .states import DensityFactor, ProductStateTrunc, state_boxtimes
from .sweeps import _digit_move

__all__ = [
    "GRAM_TOL",
    "GnsTriplet",
    "gns_build",
    "gns_tensor_phi",
    "gns_intertwiner",
    "commutant_dimension",
]

# Allowed disagreement between the two cyclic vectors, entry by entry.
GRAM_TOL = 1e-8


class GnsTriplet:
    """Hilbert space, representation, and cyclic vector of a product state.

    Made from its density factors in space order (see the module notes),
    each purified by its frame (``DensityFactor._frame``, dim x rank).
    ``cyclic`` is the Kronecker chain of the frames' row-major ravels,
    and the table ``pi0`` (N x R, int64) of where the units' images sit
    is a transpose of arange(D) fixed by the frames' shapes.  Every
    method takes an element of the triplet's signature (else
    :class:`SignatureError`), whose indices are in range by
    construction, and reads its images off the frame tables pi0
    (positions of the ones of rep(E_u)) and C = cyclic[pi0], stored
    keyed only, at the rows of its terms' units u (see the module notes):
    :meth:`rep` scatters the coefficients to the positions,
    :meth:`lambda_vec` adds the rows of C up in term order, and
    :meth:`expectations` pairs the rows of C per term, coefficient left
    out.  The image of one unit is that of ``matrix_unit(sig, rows,
    cols)``.  The cyclic vector has norm one and reproduces the state:
    <cyclic, rep(x) cyclic> = omega(x).

    Factors that do not tile ``sig`` (the same number of
    :class:`DensityFactor` per slot, their dimensions multiplying to the
    slot's) are refused with :class:`ValidationError` before any frame
    is read, and a space dimension above ``DENSE_DIM_GUARD`` with
    :class:`ResourceGuardError` before ``pi0`` is made, so a triplet's
    vectors and images stay small.

    A triplet is immutable, and so is every array it holds: a state keeps
    the one :func:`gns_build` made of it and hands it to every caller.
    """

    __slots__ = ("sig", "space_dim", "cyclic", "_factors", "_weights",
                 "_keyed_pi0", "_keyed_frame", "_keyed_conj")

    def __init__(self, sig: Signature, factors):
        factors = tuple(factors)
        level = sig.level
        if not (len(factors) % level == 0
                and all(isinstance(f, DensityFactor) for f in factors)
                and all(math.prod(f.dim for f in factors[slot::level]) == d
                        for slot, d in enumerate(sig.dims))):
            raise ValidationError(
                f"factors do not tile the signature {sig.dims} "
                f"({len(factors)} given): each slot takes as many density "
                f"factors as the others, their dimensions multiplying to "
                f"its own")
        legs = [n for f in factors for n in f._frame().shape]
        space_dim = math.prod(legs)
        _guard("GNS space dimension", space_dim)
        # the row digits: each operand's dim axis, slot by slot; then every
        # rank axis in factor order
        operands = len(factors) // level
        rows = [2 * (g * level + slot) for slot in range(level)
                for g in range(operands)]
        pi0 = _digit_move(legs, rows + list(range(1, len(legs), 2))).reshape(
            sig.total_dim, -1)
        cyclic = _kron_chain(factors)
        # the keyed tables: pi0, C = cyclic[pi0] and conj(C) after shift =
        # sum(weights) unused rows, so the row of a 1-based multi-index
        # idx (flat index idx @ weights - shift) is idx @ weights
        weights = np.array([math.prod(sig.dims[i + 1:])
                            for i in range(level)], dtype=np.int64)
        shift = int(weights.sum())
        keyed_pi0 = np.zeros((shift + len(pi0), pi0.shape[1]),
                             dtype=np.int64)
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
        # copies and pickles rebuild from the factors
        return GnsTriplet, (self.sig, self._factors)

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
    # the Kronecker chain of the factors' cyclic vectors (their frames'
    # row-major ravels), numpy.kron's bits
    return functools.reduce(np.multiply.outer,
                            [f._frame().reshape(-1) for f in factors],
                            np.ones(1, dtype=complex)).ravel()


def gns_build(S: ProductStateTrunc) -> GnsTriplet:
    """GNS triplet of a product state as a tensor product of purifications.

    Space dimension is prod_i a_i * rank(T^{(i)}), each rank counting the
    kept eigenvalues of the factor's frame (see :class:`GnsTriplet`);
    refuses to build past ``DENSE_DIM_GUARD``.  pi0 is the digit move of
    the space digits (a_1, r_1, ..., a_L, r_L) (see the module notes).

    The triplet is made on the first call and kept on the state, which
    is immutable, so every later call returns that same (immutable)
    triplet; a refused build keeps nothing.  Copies and pickles of the
    state make their own.
    """
    try:
        return S._gns
    except AttributeError:
        pass
    G = GnsTriplet(S.sig, S.factors)
    object.__setattr__(S, "_gns", G)
    return G


def gns_tensor_phi(GT: GnsTriplet, GR: GnsTriplet) -> GnsTriplet:
    """Compose two triplets through the coproduct: (pi_T (x) pi_R) o phi.

    The result represents the fused stage (entrywise-product signature) on
    the tensor of the two spaces: x |-> (rep_T (x) rep_R)(phi(x)), with
    cyclic vector cyclic_T (x) cyclic_R.  Its cyclic state is the
    factorwise-Kronecker product state.  It is the triplet of the first's
    factors, then the second's, on the fused signature: phi's fused index
    reads the operands' digits slot by slot, as that triplet's table does
    (see the module notes).  Raises :class:`SignatureError` on levels that
    differ and refuses a space dimension above ``DENSE_DIM_GUARD``.
    """
    return GnsTriplet(GT.sig.product(GR.sig), GT._factors + GR._factors)


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
    # the digits (a_l, b_l, r_l, s_l) of each fused slot, from the frames'
    # shapes (a_l, r_l) and (b_l, s_l): 2L interleaved pairs
    shapes = [(f._frame().shape, g._frame().shape)
              for f, g in zip(S.factors, R.factors)]
    legs = [n for (a, r), (b, s) in shapes for n in (a, b, r, s)]
    D = math.prod(legs)
    _guard("GNS space dimension", D)
    moved = _digit_move(legs)
    cyclic_defect = float(np.max(np.abs(
        _kron_chain(S.factors + R.factors)
        - _kron_chain(fused.factors)[moved])))
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
    pi0, a permutation since pi0 is a transpose of arange(D).
    The commutant is then W (I_N (x) M_R) W^T, of dimension R^2 (1:
    irreducible).  No unit image is read.
    """
    return G._keyed_pi0.shape[1] ** 2
