"""Exact deformed-integer calculus for skein-relation polynomial families.

The package computes two-parameter deformed integers [n] for the parameter
pairs attached to the Alexander, Jones, and HOMFLY skein relations, converts
between the coefficient views of the underlying two-term recurrences, and
evaluates the closed-form torus Alexander polynomials, all as exact Laurent
polynomials in q and p on a half-integer exponent grid.
"""

from .laurent import (
    JSON_SCHEMA,
    GridError,
    LaurentError,
    LaurentPoly,
    NegativePowerOfZError,
    NonExactDivisionError,
    NotAPerfectSquareError,
    ParseError,
    eval_numeric,
    exact_div,
    format_poly,
    parse,
    poly_sum,
    sqrt_perfect_square,
    substitute_z,
)
from .qnumbers import (
    FAMILY_NAMES,
    Family,
    PQPair,
    family_params,
    homfly_factorization_check,
    number_sequence,
    pq_number,
    pq_numbers,
)
from .skein import (
    DegenerateSkeinError,
    KnotCoefficients,
    NotSolvableOnGridError,
    SkeinCoefficients,
    knot_to_link_coeffs,
    link_coeffs_from_pq,
    pq_from_link_coeffs,
    recurrence_generate,
)
from .torus import (
    BudgetExceededError,
    NotCoprimeError,
    alexander_torus,
    alexander_torus2,
    delta_identity_check,
)

__version__ = "0.1.0"

__all__ = [
    "JSON_SCHEMA",
    "GridError",
    "LaurentError",
    "LaurentPoly",
    "NegativePowerOfZError",
    "NonExactDivisionError",
    "NotAPerfectSquareError",
    "ParseError",
    "eval_numeric",
    "exact_div",
    "format_poly",
    "parse",
    "poly_sum",
    "sqrt_perfect_square",
    "substitute_z",
    "FAMILY_NAMES",
    "Family",
    "PQPair",
    "family_params",
    "homfly_factorization_check",
    "number_sequence",
    "pq_number",
    "pq_numbers",
    "DegenerateSkeinError",
    "KnotCoefficients",
    "NotSolvableOnGridError",
    "SkeinCoefficients",
    "knot_to_link_coeffs",
    "link_coeffs_from_pq",
    "pq_from_link_coeffs",
    "recurrence_generate",
    "BudgetExceededError",
    "NotCoprimeError",
    "alexander_torus",
    "alexander_torus2",
    "delta_identity_check",
    "__version__",
]
