"""Differential tests against sympy, an algebra system that shares no code
with the kernel: ``*``, the fused sum of products ``_dot``, ``pq_number``
and ``substitute_z`` must agree with sympy's ``expand``, ``exact_div`` with
sympy's division over the integers, ``sqrt_perfect_square`` with the
root read off sympy's ``factor_list``, and ``alexander_torus`` with a
product of sympy's cyclotomic polynomials.

Doubled exponents map to integer powers of two symbols, ``x = q^(1/2)``
and ``y = p^(1/2)``.  For division and factoring a value is shifted to
nonnegative exponents first.  sympy is in the ``test`` extra; the module
is skipped where it is not installed.
"""

from math import gcd, isqrt

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from pqcalc.laurent import (
    LaurentPoly,
    NonExactDivisionError,
    NotAPerfectSquareError,
    _dot,
    exact_div,
    parse,
    sqrt_perfect_square,
    substitute_z,
)
from pqcalc.qnumbers import PQPair, pq_number
from pqcalc.torus import alexander_torus

from poly_strategies import exp2s, monomials, nonzero_polys, polys, positive_leading_polys

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


@given(pairs=st.lists(st.tuples(polys(max_terms=3), polys(max_terms=3)), max_size=4))
@example(pairs=[(parse("q + 1"), parse("q - 1")), (parse("-q"), parse("q")), (parse("1"), parse("1"))])
@settings(deadline=None, max_examples=40)
def test_dot_matches_sympy(pairs):
    want = sympy.expand(sympy.Add(*(to_sympy(a) * to_sympy(b) for a, b in pairs)))
    assert same(_dot(pairs), want)


# z = q^(1/2) - q^(-1/2) is x - 1/x; a coefficient is a value or an int
z_coeffs = st.lists(st.one_of(polys(max_terms=3), st.integers(-9, 9)), max_size=7)


@given(coeffs=z_coeffs, as_mapping=st.booleans())
@example(coeffs=[0, 0, 0, 0, 0, 0, 1], as_mapping=False)
@example(coeffs=[parse("q^(-1/2)*p"), 3, parse("q + 1"), -1], as_mapping=True)
@settings(deadline=None, max_examples=40)
def test_substitute_z_matches_the_sympy_expansion(coeffs, as_mapping):
    terms = [to_sympy(LaurentPoly._coerce(c)) * (x - 1 / x) ** k for k, c in enumerate(coeffs)]
    want = sympy.expand(sympy.Add(*terms))
    # a mapping lists the powers in reverse, and skips the zero coefficients
    arg = {k: c for k, c in reversed(list(enumerate(coeffs))) if c != 0} if as_mapping else coeffs
    assert same(substitute_z(arg), want)


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


# Values whose products cancel a term that division or the root must then
# bring back into the remainder as a new key; random sparse values rarely do.


@st.composite
def conjugates(draw):
    """``(h - u, h + u)``: their product ``h^2 - u^2`` has lost the cross
    terms ``h*u``, which dividing it by ``h + u`` brings back."""
    h, u = draw(polys(max_terms=2)), draw(polys(max_terms=2))
    assume(h != u and h != -u)
    return h - u, h + u


@st.composite
def cancelling_roots(draw):
    """``a*t^2 + 2ak*t - 2ak^2`` times a monomial, ``t`` a monomial above 1:
    its square has no ``t^2`` term, which the root's residue brings back."""
    a, k = draw(st.integers(1, 3)), draw(st.sampled_from([-2, -1, 1, 2]))
    eq, ep = draw(exp2s), draw(exp2s)
    dq, dp = draw(st.tuples(st.integers(0, 3), st.integers(-3, 3)).filter(lambda d: d > (0, 0)))
    return LaurentPoly(
        {(eq + 2 * dq, ep + 2 * dp): a, (eq + dq, ep + dp): 2 * a * k, (eq, ep): -2 * a * k * k}
    )


def shifted(f: LaurentPoly):
    """``f`` times the monomial that makes its least ``x`` and ``y`` exponents
    zero, as a sympy polynomial over the integers, and that monomial's
    exponents.  A shifted value is divisible by neither ``x`` nor ``y``, so
    Laurent divisibility of two values is divisibility of their shifts."""
    lo_q = min(q2 for (q2, _), _ in f.terms())
    lo_p = min(p2 for (_, p2), _ in f.terms())
    expr = sympy.Add(*(c * x ** (q2 - lo_q) * y ** (p2 - lo_p) for (q2, p2), c in f.terms()))
    return sympy.Poly(expr, x, y, domain="ZZ"), (lo_q, lo_p)


def sympy_div(num: LaurentPoly, den: LaurentPoly):
    """sympy's quotient of ``num`` by ``den``, shifted back, and whether its
    division over the integers left a remainder."""
    (n, (nq, np_)), (d, (dq, dp)) = shifted(num), shifted(den)
    quot, rem = n.div(d, auto=False)
    return quot.as_expr() * x ** (nq - dq) * y ** (np_ - dp), not rem.is_zero


@given(fg=st.one_of(st.tuples(nonzero_polys(4), nonzero_polys(4)), conjugates()))
@example(fg=(parse("q^2 - 3*p*q + 1"), parse("2*q^(1/2) - p^(-1/2) + 1")))
@example(fg=(parse("q - 1"), parse("q + 1")))
@settings(deadline=None, max_examples=60)
def test_exact_div_matches_sympy(fg):
    f, g = fg
    want, inexact = sympy_div(f * g, g)
    assert not inexact
    assert same(exact_div(f * g, g), want)


@given(f=polys(max_terms=3), g=nonzero_polys(max_terms=3), r=nonzero_polys(max_terms=2))
@example(f=parse("q + 1"), g=parse("2*q - 1"), r=parse("q"))
@example(f=parse("q + 1"), g=parse("q - 1"), r=parse("q^2 - 1"))
@settings(deadline=None, max_examples=60)
def test_exact_div_raises_exactly_when_sympy_leaves_a_remainder(f, g, r):
    num = f * g + r
    if num.is_zero:
        return
    want, inexact = sympy_div(num, g)
    if inexact:
        with pytest.raises(NonExactDivisionError):
            exact_div(num, g)
    else:
        assert same(exact_div(num, g), want)


def sympy_sqrt(f: LaurentPoly):
    """The principal square root of ``f`` read off sympy's factorization,
    each multiplicity halved, or ``None`` when ``f`` is not a square."""
    F, (sq, sp) = shifted(f)
    content, factors = F.factor_list()
    content = int(content)
    if content < 0 or isqrt(content) ** 2 != content or any(m % 2 for _, m in factors):
        return None
    # the least exponents of a square are even: twice its root's
    root = sympy.Poly(isqrt(content), x, y, domain="ZZ")
    for factor, m in factors:
        root *= factor ** (m // 2)
    # canonical order compares the q exponent, then the p exponent: lex, x > y
    if root.LC(order="lex") < 0:
        root = -root
    return root.as_expr() * x ** (sq // 2) * y ** (sp // 2)


@given(f=st.one_of(positive_leading_polys(max_terms=3), cancelling_roots()))
@example(f=parse("q^2 - 2*p*q^(1/2) + 3*p^(-1)"))
@example(f=parse("2*q + 2 - q^(-1)"))
@settings(deadline=None, max_examples=30)
def test_sqrt_matches_sympy_factor_list(f):
    want = sympy_sqrt(f * f)
    assert want is not None
    assert same(sqrt_perfect_square(f * f), want)


@given(f=st.one_of(nonzero_polys(max_terms=3), cancelling_roots()), r=polys(max_terms=2))
@example(f=parse("q + 1"), r=parse("-q"))
@example(f=parse("2*q + 2 - q^(-1)"), r=LaurentPoly.zero())
@example(f=parse("q^(1/2) - 1"), r=parse("q^(1/2)"))
@settings(deadline=None, max_examples=30)
def test_sqrt_raises_exactly_when_sympy_finds_no_square(f, r):
    h = f * f + r
    if h.is_zero:
        return
    want = sympy_sqrt(h)
    if want is None:
        with pytest.raises(NotAPerfectSquareError):
            sqrt_perfect_square(h)
    else:
        assert same(sqrt_perfect_square(h), want)


# A third derivation of D(n, l), after the product form and the paper's
# quotient: for coprime n, l it is q^(-c/2) times the cyclotomic
# polynomials Phi_d(q) of the d | nl that divide neither n nor l, with
# c = (n - 1)(l - 1).  sympy supplies both the divisors and the Phi_d.
TORUS_GRID = [(n, l) for n in range(1, 9) for l in range(n, 16) if gcd(n, l) == 1]


@pytest.mark.parametrize("n, l", TORUS_GRID)
def test_alexander_torus_is_a_product_of_cyclotomic_polynomials(n, l):
    c = (n - 1) * (l - 1)
    phis = [sympy.cyclotomic_poly(d, x**2) for d in sympy.divisors(n * l) if n % d and l % d]
    want = x**-c * sympy.Mul(*phis)
    assert same(alexander_torus(n, l), want)
    assert same(alexander_torus(l, n), want)
