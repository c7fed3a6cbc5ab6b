"""GNS representations from purification, and the intertwining unitary.

Every product state acts as a vector state on an explicit Hilbert space:
each density factor T contributes C^dim (x) C^rank(T) with representation
x |-> x (x) I and a cyclic vector weighted by sqrt of the eigenvalues.
The representation of the fused (Kronecker) state and the coproduct
composition of the two factor representations act on spaces of the same
dimension, and a unitary intertwines them: the permutation that moves
the digits of the purified slots as the coproduct moves the digits of
the indices — the script constructs it and checks the relation.
"""

import numpy as np

from uhfkron import (
    DensityFactor,
    ProductStateTrunc,
    all_matrix_units,
    commutant_dimension,
    gns_build,
    gns_intertwiner,
    gns_tensor_phi,
    matrix_unit,
    random_density,
    state_boxtimes,
    state_evaluate,
)


def main():
    print("=== purification of a single mixed factor ===")
    S = ProductStateTrunc([random_density(2, seed=7)])
    G = gns_build(S)
    print("space dimension:", G.space_dim, "(= dim * rank)")
    print("cyclic norm:    ", float(np.linalg.norm(G.cyclic)))
    worst = max(
        abs(G.expectation(matrix_unit(S.sig, *u)) -
            state_evaluate(S, matrix_unit(S.sig, *u)))
        for u in all_matrix_units(S.sig)
    )
    print("state reproduced on all units, max deviation:", worst)

    print()
    print("=== the GNS map ===")
    x = matrix_unit(S.sig, 1, 2)
    vec = G.lambda_vec(x)
    print("||Lambda(E_12)||^2 =", float(np.vdot(vec, vec).real))
    print("omega(E_21 E_12)   =",
          state_evaluate(S, (x.adjoint() * x)).real)

    print()
    print("=== the intertwining unitary ===")
    A = ProductStateTrunc([random_density(2, seed=8)])
    B = ProductStateTrunc([random_density(3, seed=9)])
    U = gns_intertwiner(A, B)
    print("U shape:", U.shape, " nonzero entries:", np.count_nonzero(U),
          "(= D: a permutation)")
    print("unitarity defect:",
          float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))))
    G_fused = gns_build(state_boxtimes(A, B))
    G_tensor = gns_tensor_phi(gns_build(A), gns_build(B))
    units = [matrix_unit(G_fused.sig, *u) for u in all_matrix_units(G_fused.sig)]
    worst = max(
        float(np.max(np.abs(U @ G_fused.rep(x) @ U.conj().T - G_tensor.rep(x))))
        for x in units
    )
    print("intertwining relation, max deviation over all units:", worst)
    worst = max(
        float(np.max(np.abs(U @ G_fused.lambda_vec(x) - G_tensor.lambda_vec(x))))
        for x in units
    )
    print("U Lambda_fused(x) vs Lambda_tensor(x), max deviation:", worst)

    print()
    print("=== commutants: pure product states give irreducible reps ===")
    atom = ProductStateTrunc([DensityFactor.diagonal([1, 0]),
                              DensityFactor.diagonal([0, 1]),
                              DensityFactor.diagonal([0, 1])])
    print("atom state (2,2,2):   commutant dim =",
          commutant_dimension(gns_build(atom)))
    trace = ProductStateTrunc([DensityFactor.maximally_mixed(2)])
    print("trace state level 1:  commutant dim =",
          commutant_dimension(gns_build(trace)), "(commutant is all of M_2)")
    # D = 256: the dimension is read off the triplet's frame table, with
    # no D x D image built
    trace4 = ProductStateTrunc([DensityFactor.maximally_mixed(2)] * 4)
    print("trace state level 4:  commutant dim =",
          commutant_dimension(gns_build(trace4)), "(= 16^2, all of M_16)")


if __name__ == "__main__":
    main()
