"""Exact arithmetic for Macaulay inverse systems of local Artinian
Gorenstein algebras: divided power polynomials, contraction, dual group
actions, orbit tangent spaces, and normal-form reductions."""

from .apolarity import (
    HilbertFunction,
    SymmetricDecomposition,
    ann_generators,
    ann_graded,
    dim_apolar,
    hilbert_function,
    ideal_square_graded,
    is_compressed,
    is_t_compressed,
    max_t_compressed,
    module_sf,
    symmetric_decomposition,
)
from .actions import (
    Automorphism,
    Derivation,
    GroupElement,
    apply_automorphism_dual,
    apply_group_element,
    apply_linear_map,
    apply_unit,
    compose,
    exp_group_element,
    identity_automorphism,
    identity_group_element,
    subst,
)
from .classify import (
    MembershipResult,
    ReductionTrace,
    golden_13331,
    golden_1222111,
    golden_char2,
    golden_facts,
    improved_normal_form,
    lower_degree_step,
    reduce_toward,
    square_ideal_reduce,
    stabilizer_matrix_13331,
    t_compressed_normal_form,
    tangent_residue,
    unip_orbit_membership,
)
from .dp import (
    ClassicalPoly,
    DPPoly,
    Operator,
    contract,
    omega,
    omega_inv,
    pair,
)
from .errors import *  # noqa: F401,F403 -- the exception hierarchy
from .fields import GF, QQ, FieldSpec, char_guard
from .linalg import Basis, Window, rref, span
from .parsing import (
    operator_str,
    parse_classical_poly,
    parse_operator,
    parse_poly,
    poly_str,
)
from .tangent import (
    cangrad_pair_filter,
    dense_orbit_test,
    orbit_dimension,
    perp_tangent,
    tangent_space,
    unip_tangent_space,
)

__version__ = "0.1.0"
