"""Alexander polynomials of torus knots in closed form.

For coprime n, l the (n, l) torus knot has

    D(n, l) = (q^(nl/2) - q^(-nl/2)) * (q^(1/2) - q^(-1/2))
              -----------------------------------------------
              (q^(n/2) - q^(-n/2)) * (q^(l/2) - q^(-l/2))

``alexander_torus`` does not divide.  It builds the same value from the
product form of Lam and Leung ("On the cyclotomic polynomial Phi_pq(X)",
Amer. Math. Monthly 103, 1996).  With m = min(n, l), g = max(n, l) and
c = (n-1)(l-1), let 0 <= r < g and 0 <= s < m be the unique pair with
r*m + s*g = c.  Then

    q^(c/2) * D(n, l) = (sum_{i=0..r} q^(i*m)) * (sum_{j=0..s} q^(j*g))
        - q^(-m*g) * (sum_{i=r+1..g-1} q^(i*m)) * (sum_{j=s+1..m-1} q^(j*g))

The identity needs only (r+1)*m + (s+1)*g = m*g + 1, so it holds for every
coprime pair, not only for primes.  Every exponent of the two products is
distinct, and the signs alternate in exponent order, so D(n, l) has

    T = (r+1)*(s+1) + (g-1-r)*(m-1-s)

terms, the count Carlitz gave in closed form (Amer. Math. Monthly 73,
1966).  The build is one pass of m Python steps, one ``range`` of terms
each, sorted in C, with no table of size c.  The value keeps that sorted
list of T exponents alone (``laurent._Column``): rendering writes it by
slice fills, one ``str`` per term, and the term dict is built from it
only when something else reads the value (``==``, ``hash``, arithmetic,
``is_zero``, ``leading_term``), and then replaces it.  When m + T
would pass ``laurent.MAX_WORK``, read at the call, the kernel's budget
rule raises ``BudgetExceededError`` (a ``ValueError``) before any term
is built; ``checks`` prices a walk's last D(n, 2) by the same count, and
``scripts/torus_table.py`` a whole table by their sum.
The quotient above remains the independent check: the tests and the
acceptance gate compare the two, and ``checks.torus2_counterexamples``
compares ``alexander_torus(n, 2)`` with the division in
``alexander_torus2``.  The l = 2 column extends to even n (where the
closed form above does not apply) via a sign twist in the numerator, and
that extended column reproduces the Alexander fermionic deformed integers
exactly, which the same walk checks.  This module imports only ``laurent``.
"""

from __future__ import annotations

from math import gcd

from .laurent import LaurentPoly, _Column, _int_to_str, _require_budget, _require_int, exact_div

__all__ = ["NotCoprimeError", "alexander_torus", "alexander_torus2"]


class NotCoprimeError(ValueError):
    """The closed form needs gcd(n, l) = 1."""


def alexander_torus(n: int, l: int) -> LaurentPoly:
    """Closed-form D(n, l) for coprime positive n, l, from the Lam–Leung
    product form in the module docstring, which holds for any coprime pair.

    The value has T = (r+1)*(s+1) + (g-1-r)*(m-1-s) terms (Carlitz), and
    m + T past ``laurent.MAX_WORK`` raises ``BudgetExceededError`` before
    any term is built.  It holds its T doubled ``q`` exponents in
    descending order, which rendering writes by slice fills and
    ``terms()`` walks; its term dict is built on the first other read,
    and the list then dropped.

    >>> alexander_torus(3, 5)
    LaurentPoly('q^4 - q^3 + q - 1 + q^(-1) - q^(-3) + q^(-4)')
    """
    _require_int("n", n, 1)
    _require_int("l", l, 1)
    if gcd(n, l) != 1:
        raise NotCoprimeError(f"gcd({_int_to_str(n)}, {_int_to_str(l)}) != 1")
    m, g, c, r, s = _product_form(n, l)
    # doubled q exponents 2*(i*m + j*g) - c of the first product, and
    # 2*(i*m + j*g - m*g) - c of the second
    exps: list[int] = []
    step = 2 * m
    for j in range(m):
        if j <= s:
            lo = 2 * j * g - c
            exps.extend(range(lo, lo + step * (r + 1), step))
        else:
            lo = 2 * (j - m) * g - c
            exps.extend(range(lo + step * (r + 1), lo + step * g, step))
    # sorted once, the signs alternate, +1 at both ends: the column that
    # rendering walks, and that builds the term dict on another read
    exps.sort(reverse=True)
    return _Column(exps)


def _product_form(n: int, l: int) -> tuple[int, int, int, int, int]:
    # m, g, c, r and s of D(n, l) for coprime n, l >= 1, once its m walk
    # steps and T terms are within the budget
    m, g = min(n, l), max(n, l)
    c = (n - 1) * (l - 1)
    why = ("walk steps and terms", "D({}, {})", n, l)
    # T >= 1 whatever r is, so m + 1 is priced first: an m at the budget
    # is refused before the inverse mod g, whose cost grows with g's digits
    _require_budget(m + 1, *why)
    r = c * pow(m, -1, g) % g
    s = (c - r * m) // g
    _require_budget(_work(m, g, r, s), *why)
    return m, g, c, r, s


def _work(m: int, g: int, r: int, s: int) -> int:
    # the m walk steps and T terms of D(n, l), from _product_form's values
    return m + (r + 1) * (s + 1) + (g - 1 - r) * (m - 1 - s)


# q^(1/2) + q^(-1/2), the divisor of every l = 2 value
_HALF_SUM = LaurentPoly._raw({(1, 0): 1, (-1, 0): 1})


def alexander_torus2(n: int) -> LaurentPoly:
    """The l = 2 column for every n >= 1.

    Odd n uses (q^(n/2) + q^(-n/2)) / (q^(1/2) + q^(-1/2)); even n flips
    the sign of the low term, giving the two-component link values.  The
    quotient has n terms, so an n past ``laurent.MAX_WORK`` raises
    ``BudgetExceededError`` before the division.
    """
    _require_int("n", n, 1, counts=True)
    sign = 1 if n % 2 else -1
    # n >= 1, so the two keys differ
    return exact_div(LaurentPoly._raw({(n, 0): 1, (-n, 0): sign}), _HALF_SUM)
