"""Exact computer algebra for Clifford-valued polynomials.

Multivectors over the negative-definite Clifford algebra, polynomials
with multivector coefficients, the operator calculus built from the two
halves of the Dirac operator, explicit solution-space bases, and
machine-certified direct-sum decompositions, all in exact rational
arithmetic.
"""

from .multivector import Multivector, blade_product, format_rational, parse_rational
from .polynomial import CliffordPoly, monomial_keys, norm_squared_poly, space_dim
from .operators import (
    OmegaWord,
    PinElement,
    dirac,
    dirac_minus,
    dirac_plus,
    dirac_right,
    dirac_tilde,
    h_action,
    laplacian,
    laplacian_tilde,
    sandwich_x,
    word_apply,
    x_dot,
    x_full,
    x_wedge,
)
from .linalg import (
    NotInSpan,
    RationalMatrix,
    SubspaceBasis,
    coords_in_basis,
    direct_sum_check,
    nullspace,
    operator_matrix,
    rank,
    rref,
    span_equal,
)
from .spaces import TheoremViolation, component_space, hodge_space, omega_words, space_basis
from .decompose import (
    DecompositionResult,
    TheoremReport,
    VerifySummary,
    classical_fischer_decompose,
    fischer_h_decompose,
    harmonic_infra_intersection,
    harmonic_refine,
    inframonogenic_refine,
    monogenic_refine,
    refine_decompose,
    verify_report,
)

__version__ = "0.1.0"

__all__ = [
    "Multivector",
    "blade_product",
    "parse_rational",
    "format_rational",
    "CliffordPoly",
    "monomial_keys",
    "norm_squared_poly",
    "space_dim",
    "OmegaWord",
    "PinElement",
    "dirac",
    "dirac_minus",
    "dirac_plus",
    "dirac_right",
    "dirac_tilde",
    "h_action",
    "laplacian",
    "laplacian_tilde",
    "sandwich_x",
    "word_apply",
    "x_dot",
    "x_full",
    "x_wedge",
    "NotInSpan",
    "RationalMatrix",
    "SubspaceBasis",
    "coords_in_basis",
    "direct_sum_check",
    "nullspace",
    "operator_matrix",
    "rank",
    "rref",
    "span_equal",
    "TheoremViolation",
    "component_space",
    "hodge_space",
    "omega_words",
    "space_basis",
    "DecompositionResult",
    "TheoremReport",
    "VerifySummary",
    "classical_fischer_decompose",
    "fischer_h_decompose",
    "harmonic_infra_intersection",
    "harmonic_refine",
    "inframonogenic_refine",
    "monogenic_refine",
    "refine_decompose",
    "verify_report",
]
