"""Exact deformed-integer calculus for skein-relation polynomial families.

The package computes two-parameter deformed integers [n] for the parameter
pairs attached to the Alexander, Jones, and HOMFLY skein relations, converts
between the coefficient views of the underlying two-term recurrences, and
evaluates the closed-form torus Alexander polynomials, all as exact Laurent
polynomials in q and p on a half-integer exponent grid.
"""

from .laurent import (
    JSON_SCHEMA,
    BudgetExceededError,
    GridError,
    LaurentError,
    LaurentPoly,
    NegativePowerOfZError,
    NonExactDivisionError,
    NotAPerfectSquareError,
    ParseError,
    eval_numeric,
    exact_div,
    format_json,
    format_poly,
    parse,
    poly_sum,
    sqrt_perfect_square,
    substitute_z,
)
from .qnumbers import (
    FAMILY_NAMES,
    Counterexample,
    Family,
    PQPair,
    family_params,
    first_counterexample,
    homfly_factor_counterexample,
    homfly_factorization_check,
    number_sequence,
    pq_number,
    pq_numbers,
    recurrence_counterexamples,
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
    NotCoprimeError,
    alexander_torus,
    alexander_torus2,
    torus2_counterexamples,
)

__version__ = "0.1.0"

__all__ = [
    "JSON_SCHEMA",
    "BudgetExceededError",
    "GridError",
    "LaurentError",
    "LaurentPoly",
    "NegativePowerOfZError",
    "NonExactDivisionError",
    "NotAPerfectSquareError",
    "ParseError",
    "eval_numeric",
    "exact_div",
    "format_json",
    "format_poly",
    "parse",
    "poly_sum",
    "sqrt_perfect_square",
    "substitute_z",
    "FAMILY_NAMES",
    "Counterexample",
    "Family",
    "PQPair",
    "family_params",
    "first_counterexample",
    "homfly_factor_counterexample",
    "homfly_factorization_check",
    "number_sequence",
    "pq_number",
    "pq_numbers",
    "recurrence_counterexamples",
    "DegenerateSkeinError",
    "KnotCoefficients",
    "NotSolvableOnGridError",
    "SkeinCoefficients",
    "knot_to_link_coeffs",
    "link_coeffs_from_pq",
    "pq_from_link_coeffs",
    "recurrence_generate",
    "NotCoprimeError",
    "alexander_torus",
    "alexander_torus2",
    "torus2_counterexamples",
    "__version__",
]
