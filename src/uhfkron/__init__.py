"""Finite tensor stages of UHF algebras.

Sparse matrix-unit algebra on stages M_{a_1} (x) ... (x) M_{a_n}, the
Kronecker coproduct that recodes a fused stage as a tensor product of two
stages, product states and their non-symmetric tensor product, GNS
representation data with the intertwining unitary, and the semigroup of
atom labels.  The command-line entry point is ``uhfkron``.
"""

from .algebra import (
    COEFF_PRUNE_TOL,
    COMPARE_TOL,
    DENSE_DIM_GUARD,
    AlgebraElement,
    MatrixUnitIndex,
    Signature,
    all_matrix_units,
    as_signature,
    block_permutation,
    coproduct_phi,
    coproduct_phi_block,
    elem_tensor,
    embed_psi,
    from_dense,
    identity,
    insert_identity_slot,
    kron_box,
    matrix_unit,
    product_phi_inverse,
    random_element,
    to_dense,
    zero,
)
from .atoms import (
    AtomLabel,
    AtomProductCheck,
    atom_check_product,
    atom_label_product,
    atom_state,
)
from .checks import (
    SUITES,
    CheckReport,
    run_suite,
    suite_atom_semigroup,
    suite_coassociativity,
    suite_compatibility,
    suite_nonsymmetry,
    suite_star_isomorphism,
    suite_state_associativity,
    suite_tensor_formula,
)
from .cli import cli_run, main
from .errors import (
    GramMismatchError,
    IndexRangeError,
    ParseError,
    ResourceGuardError,
    SignatureError,
    UhfError,
    ValidationError,
)
from .gns import (
    GNS_EIG_CUTOFF,
    GRAM_TOL,
    SV_RANK_CUTOFF,
    FactorGns,
    GnsTriplet,
    commutant_dimension,
    gns_build,
    gns_intertwiner,
    gns_tensor_phi,
)
from .parser import format_complex, format_element, parse_element, parse_state
from .states import (
    DENSITY_VALIDATE_TOL,
    DensityFactor,
    ProductStateTrunc,
    density_validate,
    random_density,
    random_state,
    state_boxtimes,
    state_density_level,
    state_evaluate,
    state_tensor_phi_eval,
    state_trace_distance,
)

__version__ = "0.1.0"
