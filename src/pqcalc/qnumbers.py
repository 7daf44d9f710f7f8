"""Two-parameter deformed integers and the built-in parameter families.

A pair ``(P, Q)`` of Laurent polynomials defines the deformed integers

    [0] = 0,   [n] = P^(n-1) + P^(n-2)*Q + ... + Q^(n-1)   for n >= 1,

the geometric-sum form of ``(P^n - Q^n) / (P - Q)``.  The sum form is the
definition used here because it needs no division and stays valid when
``P = Q``.  There are three routes to the numbers:

- ``pq_number(pair, n)`` sums the power tables ``P^i * Q^(n-1-i)``.  Use it
  for one ``[n]``; it rebuilds the tables on every call.
- ``pq_numbers(pair)`` yields ``[0], [1], [2], ...`` by the geometric step
  ``[n+1] = P*[n] + Q^n``, keeping only the current ``[n]`` and ``Q^n``.
  Use it to walk a run of ``[n]``: each next value costs two products.
  Reaching one large ``[n]`` this way costs every value below it, far
  more than ``pq_number``.
- ``number_sequence(pair, n_max)`` lists ``[0]..[n_max]`` by the
  three-term recurrence

      [n+1] = (P + Q)*[n] - P*Q*[n-1],    [0] = 0, [1] = 1.

  The two sum-form routes never use the recurrence, so either one is an
  independent check of it.

Six fixed families cover the classical knot polynomial specializations, in
fermionic (half exponents, mixed signs) and bosonic (integer exponents)
form for each of Alexander, Jones, and HOMFLY.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .laurent import LaurentPoly, parse, poly_sum


@dataclass(frozen=True)
class PQPair:
    """Deformation parameters.  ``P = Q`` is allowed (the sum form still
    works) but flagged, since the quotient form degenerates there."""

    P: LaurentPoly
    Q: LaurentPoly

    @property
    def is_degenerate(self) -> bool:
        return self.P == self.Q


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

    A ``PQPair`` passes through unchanged, so callers can accept either a
    built-in family or custom parameters.
    """
    if isinstance(family, PQPair):
        return family
    if isinstance(family, str):
        try:
            family = Family(family)
        except ValueError:
            raise ValueError(
                f"unknown family {family!r}; expected one of: "
                + ", ".join(FAMILY_NAMES)
            ) from None
    return _PARAMS[family]


def pq_number(family: Family | PQPair | str, n: int) -> LaurentPoly:
    """The deformed integer [n] in its geometric-sum form."""
    pair = family_params(family)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return LaurentPoly.zero()
    p_pows = [LaurentPoly.one()]
    q_pows = [LaurentPoly.one()]
    for _ in range(n - 1):
        p_pows.append(p_pows[-1] * pair.P)
        q_pows.append(q_pows[-1] * pair.Q)
    return poly_sum(p_pows[n - 1 - i] * q_pows[i] for i in range(n))


def pq_numbers(family: Family | PQPair | str) -> Iterator[LaurentPoly]:
    """[0], [1], [2], ... in the sum form, without end, by the geometric
    step [n+1] = P*[n] + Q^n.  Only the current [n] and Q^n are kept."""
    pair = family_params(family)
    value = LaurentPoly.zero()
    q_pow = LaurentPoly.one()
    while True:
        yield value
        value = pair.P * value + q_pow
        q_pow = q_pow * pair.Q


def number_sequence(family: Family | PQPair | str, n_max: int) -> list[LaurentPoly]:
    """[0], [1], ..., [n_max] generated by the three-term recurrence."""
    pair = family_params(family)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    link = pair.P + pair.Q
    prod = pair.P * pair.Q
    seq = [LaurentPoly.zero(), LaurentPoly.one()]
    for _ in range(n_max - 1):
        seq.append(link * seq[-1] - prod * seq[-2])
    return seq


@dataclass(frozen=True)
class Counterexample:
    """The first failing case of a check: at ``n`` the value computed was
    ``got`` where ``want`` was expected."""

    n: int
    got: LaurentPoly
    want: LaurentPoly


def first_counterexample(
    cases: Iterable[tuple[int, LaurentPoly, LaurentPoly]],
) -> Counterexample | None:
    """The first case ``(n, got, want)`` with ``got != want``, or ``None``.
    The cases after it are not drawn, so a lazy stream stops there."""
    for n, got, want in cases:
        if got != want:
            return Counterexample(n, got, want)
    return None


def homfly_factorization_check(n: int) -> bool:
    """Does the HOMFLY fermionic [n] equal p^(n-1) times the Alexander
    fermionic [n]?  The HOMFLY parameters are the Alexander ones scaled by
    p, and [n] is homogeneous of degree n-1 in (P, Q), so this must hold."""
    if n < 1:
        raise ValueError("n must be at least 1")
    scale = LaurentPoly.monomial(1, 0, 2 * (n - 1))
    return pq_number(Family.HOMFLY_FERMIONIC, n) == scale * pq_number(
        Family.ALEXANDER_FERMIONIC, n
    )
