"""Exact braided R-matrices, braid group representations and entangling
gates built from group algebras of finite cyclic groups.

Everything is computed over cyclotomic fields with rational coefficients,
so every identity check in the package is an exact equality; a floating
numpy backend exists only as an independent cross-check.
"""

from .braidrep import (
    BraidedRMatrix,
    BraidWord,
    ModuleAction,
    braid_generator,
    braided_r,
    braiding_map,
    check_braid_relations,
    check_braided_ybe,
    check_hexagon,
    check_module_morphism,
    evaluate_braid_word,
)
from .groupalg import (
    AlgebraElement,
    GroupSpec,
    TensorElement,
    antipode,
    check_algebraic_ybe,
    check_hopf_axioms,
    check_quasi_cocommutative,
    check_quasitriangular,
    coproduct,
    counit,
    opposite_coproduct,
    specs_up_to,
    universal_r,
    universal_r_fused_phase,
    universal_r_inverse,
)
from .linalg import (
    Matrix,
    RegularRepresentation,
    SingularMatrixError,
    conjugate_transpose,
    flip_operator,
    invert_matrix,
    kron,
    regular_representation,
)
from .quantum import (
    BELL_KINDS,
    StateVector,
    apply_gate,
    bell_matrix,
    bell_state,
    check_bell_actions,
    concurrence,
    kauffman_lomonaco_r,
    kl_entangling_test,
    schmidt_rank,
    verify_bell_actions,
)
from .scalar import CyclotomicNumber, Rational, cyclotomic_polynomial, rational, root_of_unity

__version__ = "0.1.0"
