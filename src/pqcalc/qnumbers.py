"""Two-parameter deformed integers and the built-in parameter families.

A pair ``(P, Q)`` of Laurent polynomials defines the deformed integers

    [0] = 0,   [n] = P^(n-1) + P^(n-2)*Q + ... + Q^(n-1)   for n >= 1,

the geometric-sum form of ``(P^n - Q^n) / (P - Q)``.  The sum form is the
definition used here because it needs no division and stays valid when
``P = Q``.  There are three routes to the numbers:

- ``pq_number(pair, n)`` computes one ``[n]``.  When P and Q each have at
  most one term, as in every built-in family, it writes the n summands
  ``P^(n-1-i) * Q^i`` directly, each a single term: no products, O(n)
  integer work and at most n terms.  Any other pair sums the products
  ``P^i * Q^(n-1-i)``, keeping one power table, rebuilt on every call: the
  smaller side's powers are held and the other side's are streamed.
  Either way an ``[n]`` over ``laurent.MAX_WORK``, read at the call, is
  refused before it is built.
- ``pq_numbers(pair)`` streams ``[0], [1], [2], ...`` by the geometric step
  ``[n+1] = P*[n] + Q^n``, keeping only the current ``[n]`` and ``Q^n``.
  Use it to walk a run of ``[n]``: each next value costs one fused sum of
  products (``laurent._dot``) and the product for the next ``Q^n``.
  Reaching one large ``[n]`` this way costs every value below it, far
  more than ``pq_number``.
- ``recurrence_numbers(pair)`` streams ``[0], [1], [2], ...`` by the
  three-term recurrence

      [n+1] = (P + Q)*[n] - P*Q*[n-1],    [0] = 0, [1] = 1,

  the skein chain: ``skein.recurrence`` on the link coefficients
  ``skein.link_coeffs_from_pq(pair)``, so a pair with ``P*Q = 0`` raises
  ``DegenerateSkeinError``.  It too keeps only the last two values.
  ``number_sequence(pair, n_max)`` lists its ``[0]..[n_max]`` through
  the meter of ``skein.recurrence_generate``.  The two sum-form routes
  never use the recurrence, so ``checks.recurrence_counterexamples``
  checks the recurrence stream against ``pq_numbers``.

Both streams resolve the family, and refuse a bad one, when called, before
the first value is drawn.

``homfly_factorization_check(n)`` compares the HOMFLY and Alexander [n] at
one n; the walks that check these identities up to a bound live in
``checks``.  ``PQPair`` lives in ``skein`` and is imported here.

Six fixed families cover the classical knot polynomial specializations, in
fermionic (half exponents, mixed signs) and bosonic (integer exponents)
form for each of Alexander, Jones, and HOMFLY.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from itertools import accumulate, count, repeat
from operator import mul

from .laurent import (
    LaurentPoly,
    _dot,
    _power_cost,
    _require_budget,
    _require_int,
    _require_poly,
    parse,
)
from .skein import PQPair, _metered, link_coeffs_from_pq, recurrence

__all__ = [
    "FAMILY_NAMES",
    "Family",
    "family_params",
    "homfly_factorization_check",
    "number_sequence",
    "pq_number",
    "pq_numbers",
    "recurrence_numbers",
]


class Family(enum.Enum):
    """The built-in parameter families, named by their CLI spelling."""

    ALEXANDER_FERMIONIC = "alexander-fermionic"
    ALEXANDER_BOSONIC = "alexander-bosonic"
    JONES_FERMIONIC = "jones-fermionic"
    JONES_BOSONIC = "jones-bosonic"
    HOMFLY_FERMIONIC = "homfly-fermionic"
    HOMFLY_BOSONIC = "homfly-bosonic"


_PARAMS: dict[Family, PQPair] = {
    Family.ALEXANDER_FERMIONIC: PQPair(parse("q^(1/2)"), parse("-q^(-1/2)")),
    Family.ALEXANDER_BOSONIC: PQPair(parse("q"), parse("q^(-1)")),
    Family.JONES_FERMIONIC: PQPair(parse("q^(3/2)"), parse("-q^(1/2)")),
    Family.JONES_BOSONIC: PQPair(parse("q^3"), parse("q")),
    Family.HOMFLY_FERMIONIC: PQPair(parse("p*q^(1/2)"), parse("-p*q^(-1/2)")),
    Family.HOMFLY_BOSONIC: PQPair(parse("p^2*q"), parse("p^2*q^(-1)")),
}

FAMILY_NAMES = tuple(family.value for family in Family)


def family_params(family: Family | PQPair | str) -> PQPair:
    """Resolve a family tag (or name string) to its parameter pair.

    A ``PQPair`` of two ``LaurentPoly`` values passes through unchanged, so
    callers can accept either a built-in family or custom parameters; a
    plain int member is the constant it names, and a member of any other
    type raises ``TypeError``.  Anything else raises ``ValueError``.
    """
    if isinstance(family, PQPair):
        P, Q = _require_poly("P", family.P), _require_poly("Q", family.Q)
        return family if P is family.P and Q is family.Q else PQPair(P, Q)
    try:
        return _PARAMS[Family(family)]
    except ValueError:
        raise ValueError(
            f"unknown family {family!r}; expected one of: " + ", ".join(FAMILY_NAMES)
        ) from None


def pq_number(family: Family | PQPair | str, n: int) -> LaurentPoly:
    """The deformed integer [n] in its geometric-sum form.

    When P and Q each have at most one term, ``P = a*x^e`` and
    ``Q = b*x^f``, summand i is ``a^(n-1-i) * b^i`` at exponent
    ``(n-1)*e + i*(f-e)``: the exponents come from integer steps and the
    coefficients from running powers of a and b, so the cost is O(n)
    integer operations and ``[n]`` has at most n terms.  When e = f (a
    zero P or Q counts as sharing the other's exponent) every summand
    lands on one term, whose coefficient ``(a^n - b^n) / (a - b)``, or
    ``n*a^(n-1)`` when a = b, takes O(log n) products; a zero sum leaves
    ``[n] = 0``.  Any other pair sums the n products ``P^(n-1-i) * Q^i``
    in one fused accumulation (``laurent._dot``), from 2(n-1) products:
    as ``[n]`` is symmetric in P and Q, it holds the powers of the side
    with fewer terms and streams the other side's, one power at a time,
    so only one power table is ever kept.

    Before either route runs, the size of ``[n]`` is bounded from P, Q and
    n alone, and ``BudgetExceededError`` is raised when its terms times
    64-bit words per coefficient would pass ``laurent.MAX_WORK``.  An
    ``n`` that is not an ``int`` raises ``TypeError``, and a negative one
    ``ValueError``, before the family is resolved.

    >>> pq_number("alexander-bosonic", 3)
    LaurentPoly('q^2 + 1 + q^(-2)')
    """
    _require_int("n", n, 0)
    pair = family_params(family)
    if n == 0:
        return LaurentPoly.zero()
    # [n] sums n products of n - 1 terms of P or Q
    _require_budget(_power_cost((pair.P._terms, pair.Q._terms), n - 1, n),
                    "terms times 64-bit coefficient words", "[n] at n = {}", n)
    if len(pair.P._terms) <= 1 and len(pair.Q._terms) <= 1:
        return _monomial_number(pair.P, pair.Q, n)
    # [n] is symmetric in P and Q: hold the smaller side's powers, and
    # stream the other's, one at a time
    held, streamed = sorted(pair, key=lambda f: len(f._terms))
    one = LaurentPoly.one()
    held_pows = list(accumulate(repeat(held, n - 1), mul, initial=one))
    return _dot(zip(reversed(held_pows), accumulate(repeat(streamed, n - 1), mul, initial=one)))


def _monomial_number(P: LaurentPoly, Q: LaurentPoly, n: int) -> LaurentPoly:
    # P = a*x^e and Q = b*x^f; a zero one takes the other's exponent
    anchor = next(iter(P._terms or Q._terms), (0, 0))
    ((e, a),) = P._terms.items() or [(anchor, 0)]
    ((f, b),) = Q._terms.items() or [(anchor, 0)]
    if e == f:
        # the sum of a^(n-1-i) * b^i over i
        coeff = n * a ** (n - 1) if a == b else (a**n - b**n) // (a - b)
        return LaurentPoly.monomial(coeff, (n - 1) * e[0], (n - 1) * e[1])
    # a and b are nonzero here, so no summand vanishes
    a_pows = list(accumulate(repeat(a, n - 1), mul, initial=1))
    b_pows = accumulate(repeat(b, n - 1), mul, initial=1)
    exps = zip(count((n - 1) * e[0], f[0] - e[0]), count((n - 1) * e[1], f[1] - e[1]))
    # the exponents step by f - e, so they descend where f is below e, as
    # in every built-in family
    return LaurentPoly._raw(dict(zip(exps, map(mul, reversed(a_pows), b_pows))), f < e)


def pq_numbers(family: Family | PQPair | str) -> Iterator[LaurentPoly]:
    """[0], [1], [2], ... in the sum form, without end, by the geometric
    step [n+1] = P*[n] + Q^n, one fused sum of products.  Only the current
    [n] and Q^n are kept."""
    return _pq_numbers(family_params(family))


def _pq_numbers(pair: PQPair) -> Iterator[LaurentPoly]:
    one = LaurentPoly.one()
    value = LaurentPoly.zero()
    q_pow = one
    while True:
        yield value
        value = _dot(((pair.P, value), (one, q_pow)))
        q_pow = q_pow * pair.Q


def recurrence_numbers(family: Family | PQPair | str) -> Iterator[LaurentPoly]:
    """[0], [1], [2], ... by the three-term recurrence, without end:
    ``skein.recurrence`` on the link coefficients from the seeds 0 and 1.
    Only the last two values are kept.  A pair with ``P*Q = 0`` raises
    ``DegenerateSkeinError`` when this is called."""
    coeffs = link_coeffs_from_pq(family_params(family))
    return recurrence(coeffs, LaurentPoly.zero(), LaurentPoly.one())


def number_sequence(family: Family | PQPair | str, n_max: int) -> list[LaurentPoly]:
    """[0], [1], ..., [n_max] of ``recurrence_numbers``, as a list, for an
    ``n_max`` from 1 to ``laurent.MAX_WORK``.

    Metered as ``skein.recurrence_generate`` is: the values past [1] are
    priced as they come, in terms times 64-bit coefficient words, and
    ``BudgetExceededError`` is raised once their sum passes ``MAX_WORK``."""
    _require_int("n_max", n_max, 1, counts=True)
    return _metered(recurrence_numbers(family), n_max + 1, "[0]..[{}]", n_max)


def _homfly_want(n: int, alexander: LaurentPoly) -> LaurentPoly:
    # the HOMFLY parameters are the Alexander ones scaled by p, and [n] is
    # homogeneous of degree n-1 in (P, Q)
    return LaurentPoly.monomial(1, 0, 2 * (n - 1)) * alexander


def homfly_factorization_check(n: int) -> bool:
    """Does the HOMFLY fermionic [n] equal p^(n-1) times the Alexander
    fermionic [n]?"""
    _require_int("n", n, 1)
    return pq_number(Family.HOMFLY_FERMIONIC, n) == _homfly_want(
        n, pq_number(Family.ALEXANDER_FERMIONIC, n)
    )
