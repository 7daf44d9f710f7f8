"""Coefficient algebra for two-term skein recurrences.

A skein relation contributes a linear recurrence

    X[n+1] = l1 * X[n] + l2 * X[n-1]

whose characteristic roots are the deformation parameters:

    x^2 - l1*x - l2 = (x - P)(x - Q),   so   l1 = P + Q,  l2 = -P*Q.

This module holds the pair record ``PQPair`` and converts between the
three coefficient views: the pair (P, Q), the link coefficients (l1, l2),
and the "knot" coefficients (k1, k2) read off a recurrence with integer
exponents, whose square roots recover the half-exponent link coefficients.
``recurrence`` is the one implementation of the recurrence, a lazy stream
that keeps only the last two values; ``qnumbers.recurrence_numbers`` runs
it from the seeds 0 and 1.  ``recurrence_generate`` and
``qnumbers.number_sequence`` list a stream's first values through one
meter, which prices each value past the seeds as it comes.  This module
imports only ``laurent``, so ``qnumbers`` can build on it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, repeat
from operator import floordiv
from typing import NamedTuple

from .laurent import (
    LaurentPoly,
    NotAPerfectSquareError,
    _dot,
    _require_budget,
    _require_int,
    _require_poly,
    exact_div,
    sqrt_perfect_square,
)

__all__ = [
    "DegenerateSkeinError",
    "KnotCoefficients",
    "NotSolvableOnGridError",
    "PQPair",
    "SkeinCoefficients",
    "knot_to_link_coeffs",
    "link_coeffs_from_pq",
    "pq_from_link_coeffs",
    "recurrence",
    "recurrence_generate",
]


class PQPair(NamedTuple):
    """Deformation parameters.  ``P = Q`` is allowed (the sum form still
    works) but flagged, since the quotient form degenerates there."""

    P: LaurentPoly
    Q: LaurentPoly

    @property
    def is_degenerate(self) -> bool:
        return self.P == self.Q


class DegenerateSkeinError(ValueError):
    """The would-be relation collapses to fewer than two history terms."""


class NotSolvableOnGridError(ValueError):
    """No (P, Q) pair with integer coefficients on the half-exponent grid
    satisfies the given link coefficients."""


class SkeinCoefficients(NamedTuple):
    l1: LaurentPoly
    l2: LaurentPoly

    @property
    def is_degenerate(self) -> bool:
        return self.l2.is_zero


class KnotCoefficients(NamedTuple):
    k1: LaurentPoly
    k2: LaurentPoly


def link_coeffs_from_pq(pair: PQPair) -> SkeinCoefficients:
    """(P, Q) to (l1, l2) = (P + Q, -P*Q).  A plain int member is the
    constant it names; any other type that is not a ``LaurentPoly`` raises
    ``TypeError``."""
    P, Q = _require_poly("P", pair.P), _require_poly("Q", pair.Q)
    prod = P * Q
    if prod.is_zero:
        raise DegenerateSkeinError("P*Q = 0 collapses the relation to one term")
    return SkeinCoefficients(P + Q, -prod)


def pq_from_link_coeffs(coeffs: SkeinCoefficients) -> PQPair:
    """Solve x^2 - l1*x - l2 = 0 for the pair (P, Q).

    P takes the branch with the principal (positive leading) square root of
    the discriminant, matching the built-in families.  Fails when the
    discriminant is not a perfect square on the grid, including the
    degenerate repeated-root case (discriminant zero).  A plain int member
    is the constant it names; any other type that is not a ``LaurentPoly``
    raises ``TypeError``.
    """
    l1, l2 = _require_poly("l1", coeffs.l1), _require_poly("l2", coeffs.l2)
    disc = l1 * l1 + 4 * l2
    try:
        root = sqrt_perfect_square(disc)
    except NotAPerfectSquareError as exc:
        raise NotSolvableOnGridError(
            f"discriminant l1^2 + 4*l2 = {disc} has no principal square root: {exc}"
        ) from exc
    # root^2 = l1^2 + 4*l2 gives (root - l1)^2 = 0 mod 2, and Laurent
    # polynomials over F2 have no zero divisors, so root = l1 mod 2 and
    # both halvings are exact
    two = LaurentPoly.monomial(2)
    return PQPair(exact_div(l1 + root, two), exact_div(l1 - root, two))


def knot_to_link_coeffs(kc: KnotCoefficients) -> SkeinCoefficients:
    """Recover (l1, l2) from integer-exponent recurrence coefficients:

        l2 = sqrt(-k2),    l1 = sqrt(k1 - 2*l2).

    Both sign conventions for k2 occur in practice (the recurrence minus
    sign may or may not be folded into the stored value).  A square has a
    positive leading coefficient, so the admissible branch of ``-k2`` vs
    ``k2`` is unambiguous and both spellings are accepted.  A plain int
    member is the constant it names; any other type that is not a
    ``LaurentPoly`` raises ``TypeError``.
    """
    k1, k2 = _require_poly("k1", kc.k1), _require_poly("k2", kc.k2)
    radicand = -k2
    if radicand.is_zero:
        raise NotAPerfectSquareError("l2 root failed: k2 = 0 has no nonzero square root")
    if radicand.leading_term()[1] < 0:
        radicand = k2
    try:
        l2 = sqrt_perfect_square(radicand)
    except NotAPerfectSquareError as exc:
        raise NotAPerfectSquareError(f"l2 root failed: radicand {radicand}: {exc}") from exc
    second = k1 - 2 * l2
    try:
        l1 = sqrt_perfect_square(second)
    except NotAPerfectSquareError as exc:
        raise NotAPerfectSquareError(f"l1 root failed: radicand {second}: {exc}") from exc
    return SkeinCoefficients(l1, l2)


def recurrence(
    coeffs: SkeinCoefficients, p0: LaurentPoly, p1: LaurentPoly
) -> Iterator[LaurentPoly]:
    """X[0], X[1], X[2], ... of X[n+1] = l1*X[n] + l2*X[n-1] from the seeds
    ``X[0] = p0`` and ``X[1] = p1``, without end.  Only the last two values
    are kept, and each next value is one fused sum of products
    (``laurent._dot``).  A plain int is the constant it names; any other
    ``l1``, ``l2``, ``p0`` or ``p1`` that is not a ``LaurentPoly`` raises
    ``TypeError`` when this is called, before any value is drawn."""
    l1, l2 = coeffs
    return _recurrence(_require_poly("l1", l1), _require_poly("l2", l2),
                       _require_poly("p0", p0), _require_poly("p1", p1))


def _recurrence(l1: LaurentPoly, l2: LaurentPoly, older: LaurentPoly,
                newer: LaurentPoly) -> Iterator[LaurentPoly]:
    yield older
    while True:
        yield newer
        older, newer = newer, _dot(((l1, newer), (l2, older)))


def recurrence_generate(
    coeffs: SkeinCoefficients,
    p0: LaurentPoly,
    p1: LaurentPoly,
    count: int,
) -> list[LaurentPoly]:
    """First ``count`` values of ``recurrence(coeffs, p0, p1)``.  ``count``
    includes the seeds themselves, and is an ``int`` (else ``TypeError``)
    of at least 2 (else ``ValueError``) and at most ``MAX_WORK`` (else
    ``BudgetExceededError``).

    The values built past the seeds are metered as they come, in terms
    times 64-bit coefficient words; ``BudgetExceededError`` is raised once
    their sum passes ``MAX_WORK``.  The values grow with the count, in
    terms and in coefficient bits, so the count alone bounds neither."""
    _require_int("count", count, 2, counts=True)
    return _metered(recurrence(coeffs, p0, p1), count, "a sequence of {} values", count)


def _metered(stream: Iterator[LaurentPoly], count: int, subject: str, *args) -> list[LaurentPoly]:
    # the first ``count`` values of a recurrence stream, the two seeds and
    # then each value built past them, priced as it comes against MAX_WORK;
    # the subject and its args name the list in the refusal
    values = list(islice(stream, 2))
    work = 0
    for value in islice(stream, count - 2):
        # one word per term, and one more per whole 64 bits of its
        # coefficient, in one C-level pass over the coefficients
        terms = value._terms.values()
        work += len(terms) + sum(map(floordiv, map(int.bit_length, terms), repeat(64)))
        _require_budget(work, "terms times 64-bit coefficient words", subject, *args)
        values.append(value)
    return values
