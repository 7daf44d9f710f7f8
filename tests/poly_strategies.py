"""Shared hypothesis strategies for random Laurent polynomials, and a
broken ``_dot`` for tests that patch it in."""

import hypothesis.strategies as st

from pqcalc.laurent import LaurentPoly

exp2s = st.integers(min_value=-8, max_value=8)
nonzero_coeffs = st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0)


@st.composite
def polys(draw, max_terms=5):
    n = draw(st.integers(0, max_terms))
    items = [((draw(exp2s), draw(exp2s)), draw(nonzero_coeffs)) for _ in range(n)]
    return LaurentPoly(items)


def nonzero_polys(max_terms=5):
    return polys(max_terms=max_terms).filter(lambda f: not f.is_zero)


def positive_leading_polys(max_terms=4):
    # flip the sign where needed so the leading coefficient is positive
    return nonzero_polys(max_terms=max_terms).map(
        lambda f: f if f.leading_term()[1] > 0 else -f
    )


@st.composite
def monomials(draw, positive=False):
    coeff = draw(nonzero_coeffs)
    if positive:
        coeff = abs(coeff)
    return LaurentPoly.monomial(coeff, draw(exp2s), draw(exp2s))


def overwriting_dot(pairs):
    """``_dot`` with a bug: each term product overwrites the term before
    it at the same exponent instead of adding to it."""
    data = {}
    for a, x in pairs:
        for (aq, ap), ac in a.terms():
            for (bq, bp), bc in x.terms():
                data[(aq + bq, ap + bp)] = ac * bc
    return LaurentPoly(data)
