"""Differential tests against sympy, an algebra system that shares no code
with the kernel: ``*`` and ``pq_number`` must agree with sympy's ``expand``.

Doubled exponents map to integer powers of two symbols, ``x = q^(1/2)``
and ``y = p^(1/2)``.  sympy is in the ``test`` extra; the module is
skipped where it is not installed.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from pqcalc.laurent import LaurentPoly, parse
from pqcalc.qnumbers import PQPair, pq_number

from poly_strategies import monomials, polys

sympy = pytest.importorskip("sympy")

x, y = sympy.symbols("x y")


def to_sympy(f: LaurentPoly):
    return sympy.Add(*(c * x**q2 * y**p2 for (q2, p2), c in f.terms()))


def same(f: LaurentPoly, expr) -> bool:
    return sympy.expand(to_sympy(f) - expr) == 0


@given(f=polys(max_terms=4), g=polys(max_terms=4))
@settings(deadline=None, max_examples=40)
def test_mul_matches_sympy(f, g):
    assert same(f * g, sympy.expand(to_sympy(f) * to_sympy(g)))


big = st.integers(2**64 + 1, 2**66).map(LaurentPoly)
pair_parts = st.one_of(monomials(), st.just(LaurentPoly.zero()), big, polys(max_terms=2))


@given(P=pair_parts, Q=pair_parts, n=st.integers(0, 12))
@example(P=parse("q"), Q=parse("-q"), n=6)
@example(P=parse("2*q^(1/2)"), Q=parse("2*q^(1/2)"), n=5)
@example(P=parse("3*p*q^(-1/2)"), Q=parse("-q^(3/2)"), n=7)
@settings(deadline=None, max_examples=40)
def test_pq_number_matches_the_expanded_sum(P, Q, n):
    sP, sQ = to_sympy(P), to_sympy(Q)
    want = sympy.expand(sympy.Add(*(sP ** (n - 1 - i) * sQ**i for i in range(n))))
    assert same(pq_number(PQPair(P, Q), n), want)
