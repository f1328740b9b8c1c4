"""Linearized permutation polynomials over F_{q^n} via primitive idempotents.

The package is organized bottom-up: finite fields (fields), the cyclic ring
F_q[x]/(x^n - 1) and its factorization (polyring), primitive idempotents and
component projections (idempotents), linearized polynomials with permutation
tests, inverses and involutions (linearized), the alpha-cyclic shift operator
(shifts), brute-force cross-checks (oracle) and a CLI (cli).
"""

from .errors import LinpermError
from .fields import (
    ExtElement,
    ExtFieldSpec,
    FieldElement,
    FieldSpec,
    base_field,
    element_order,
    extension_field,
    find_irreducible,
    frobenius,
    integer_order_mod,
    norm,
)
from .idempotents import (
    ComponentVector,
    IdempotentBasis,
    closed_form_pm,
    cor4_condition,
    is_idempotent,
    is_primitive_idempotent,
    primitive_idempotents,
    project,
    reconstruct,
)
from .linearized import (
    LinearizedPoly,
    a_complete_check,
    a_complete_sufficient_pm,
    binomial_is_permutation,
    coefficient_sum_reject,
    compose,
    compositional_inverse,
    conventional_associate,
    evaluate,
    evaluate_many,
    format_linearized,
    has_base_coeffs,
    identity,
    is_involution,
    is_permutation,
    is_permutation_gcd,
    is_permutation_rank,
    linearized_associate,
    parse_linearized,
    pm_sufficient_conditions,
    sign_vector_involutions,
)
from .oracle import (
    discrete_log,
    fixed_points,
    involution_check_pointwise,
    is_bijection_bruteforce,
    kernel,
    sqrt_unity_bruteforce,
)
from .polyring import (
    CyclotomicCoset,
    Poly,
    RingElement,
    RingSpec,
    cyclotomic_cosets,
    factor_xn_minus_1,
    format_poly,
    parse_poly,
    parse_ring_element,
    poly_egcd,
    poly_gcd,
    ring_inverse,
    ring_is_unit,
    ring_mul,
    shift_mul_x,
)
from .shifts import (
    ShiftClass,
    alpha_shift,
    alpha_shift_power,
    cyclic_order,
    half_order_involution,
    is_maximal_order_element,
    shift_class,
    shifted_inverse,
)

__version__ = "0.1.0"
