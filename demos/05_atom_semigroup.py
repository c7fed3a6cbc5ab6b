"""The semigroup of atom labels.

A label J over {1, ..., n} encodes the pure product state with one-hot
densities E_{j_l j_l}.  The entrywise product m*(j_l - 1) + k_l matches
the Kronecker product of those densities exactly, so labels multiply the
way their states do: a genuinely non-commutative semigroup.
"""

from uhfkron import (
    AtomLabel,
    atom_check_product,
    atom_label_product,
    atom_state,
)
# the checking core, which checks a pair against any given label
from uhfkron.atoms import _check_pairs


def main():
    print("=== labels and their states ===")
    J = AtomLabel(2, (1, 2), tail_constant=2)
    print("label:", J)
    print("first five letters:", J.entries(5))
    S = atom_state(J, 3)
    print("level-3 state factors (diagonals):",
          [tuple(int(v.real) for v in f.matrix.diagonal())
           for f in S.factors])

    print()
    print("=== the label product ===")
    K = AtomLabel(3, (3, 1), tail_constant=1)
    JK = atom_label_product(J, K)
    print(f"J (base 2) = {J.prefix}..., K (base 3) = {K.prefix}...")
    print(f"J.K (base {JK.base}) = {JK.prefix}..., tail {JK.tail_constant}")

    print()
    print("=== the product law holds: both routes checked ===")
    result = atom_check_product(J, K, level=3)
    print("factorwise Kronecker == product-label state, and coproduct")
    print("evaluation agrees on every level-3 unit:", bool(result))

    print()
    print("=== non-commutativity ===")
    A = AtomLabel(2, (1, 1, 1))
    B = AtomLabel(2, (2, 2, 2))
    print("A.B =", atom_label_product(A, B).prefix)
    print("B.A =", atom_label_product(B, A).prefix)
    print("the two orders give different atoms — the same asymmetry the")
    print("state witness detects with trace distance 2.")

    print()
    print("=== negative control: a corrupted expectation is caught ===")
    good = atom_label_product(A, B)
    corrupted = AtomLabel(good.base, (good.prefix[0], 1, good.prefix[2]))
    result = _check_pairs([(A, B, corrupted)], 2)[0]
    print("check passes:", bool(result))
    print("diagnostic:  ", result.diagnostic)


if __name__ == "__main__":
    main()
