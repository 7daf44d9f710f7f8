"""Alexander polynomials of torus knots in closed form.

For coprime n, l the (n, l) torus knot has

    D(n, l) = (q^(nl/2) - q^(-nl/2)) * (q^(1/2) - q^(-1/2))
              -----------------------------------------------
              (q^(n/2) - q^(-n/2)) * (q^(l/2) - q^(-l/2))

``alexander_torus`` does not divide.  With c = (n-1)(l-1), the same value is

    D(n, l) = q^(-c/2) * [(1 - q) * sum_{s in <n, l>, s < c} q^s + q^c]

over the numerical semigroup <n, l> = {a*n + b*l : a, b >= 0}, whose
largest gap is c - 1.  Its nonzero coefficients are the edges of the runs
of members below c, and they are read off without a table of size c.
Write s = i*m + r with m = min(n, l) and 0 <= r < m: s is a member iff
i >= t[r], where t[r]*m + r is the least member congruent to r mod m.  The
edges in column r are then the rows between t[r-1] and t[r], so the work
is m Python steps plus the output terms, listed from ``range`` objects
and sorted in C, and the memory is that of the output.  When m plus the
output terms would pass ``MAX_WORK``, ``BudgetExceededError`` (a
``ValueError``) is raised before any term is built.  The quotient above
remains the independent check: the tests and the acceptance gate compare
the two, and ``verify``'s delta-identity suite compares
``alexander_torus(n, 2)`` with the division in ``alexander_torus2``.  The
l = 2 column extends to even n (where the closed form above does not
apply) via a sign twist in the numerator, and that extended column
reproduces the Alexander fermionic deformed integers exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import cycle, islice, repeat
from math import gcd

from . import qnumbers
from .laurent import LaurentPoly, exact_div


# the most work ``alexander_torus`` takes on: walk steps plus output terms.
# A term of the result costs about 135 bytes, so this caps it near 540 MB.
MAX_WORK = 4 * 10**6


class NotCoprimeError(ValueError):
    """The closed form needs gcd(n, l) = 1."""


class BudgetExceededError(ValueError):
    """The requested value would cost more than ``MAX_WORK``."""


def _edge_rows(m: int, g: int, c: int) -> Iterator[tuple[int, range, range]]:
    """Per column r of <m, g> (m <= g, coprime): the rows i with i*m + r < c
    where a run of members starts (coefficient +1) and where one ends (-1)."""
    inv = pow(g, -1, m)
    # the least member congruent to r is (r * inv % m) * g; t is its row.
    # Column 0 holds every multiple of m, and a run starts at i*m exactly
    # when i*m - 1, in row i - 1 of column m - 1, is a gap.
    prev = ((m - 1) * inv % m * g - (m - 1)) // m + 1
    for r in range(m):
        t = (r * inv % m * g - r) // m
        below_c = (c - r + m - 1) // m
        yield r, range(t, min(prev, below_c)), range(prev, min(t, below_c))
        prev = t


def _check_budget(n: int, l: int, m: int, g: int, c: int) -> None:
    # m walk steps, then one unit per output term (the q^(c/2) term and
    # the run edges); stop counting once over
    work = m + 1
    if work <= MAX_WORK:
        for _, up, down in _edge_rows(m, g, c):
            work += len(up) + len(down)
            if work > MAX_WORK:
                break
    if work > MAX_WORK:
        raise BudgetExceededError(
            f"D({n}, {l}) is over the budget of {MAX_WORK} walk steps and terms"
        )


def alexander_torus(n: int, l: int) -> LaurentPoly:
    """Closed-form D(n, l) for coprime positive n, l.

    >>> alexander_torus(3, 5)
    LaurentPoly('q^4 - q^3 + q - 1 + q^(-1) - q^(-3) + q^(-4)')
    """
    if n < 1 or l < 1:
        raise ValueError("torus parameters must be positive")
    if gcd(n, l) != 1:
        raise NotCoprimeError(f"gcd({n}, {l}) != 1")
    m, g = min(n, l), max(n, l)
    c = (n - 1) * (l - 1)
    if m + c + 1 > MAX_WORK:  # D(n, l) has at most c + 1 terms
        _check_budget(n, l, m, g, c)
    # the coefficient of q^((2s - c)/2) is +1 where a run starts at s, -1
    # where one ends, and 1 at s = c, past the largest gap c - 1
    starts: list[int] = []  # doubled q exponents 2s - c
    ends: list[int] = []
    step = 2 * m
    for r, up, down in _edge_rows(m, g, c):
        if up:
            lo = step * up.start + 2 * r - c
            starts.extend(range(lo, lo + step * len(up), step))
        if down:
            lo = step * down.start + 2 * r - c
            ends.extend(range(lo, lo + step * len(down), step))
    # columns come out of order.  The runs are disjoint, so the sorted
    # starts and ends alternate; the terms go in ascending, which the
    # descending sort of every later terms() call takes in one pass
    starts.sort()
    ends.sort()
    exps = starts + ends
    exps[0::2] = starts
    exps[1::2] = ends
    exps.append(c)
    return LaurentPoly._raw(dict(zip(zip(exps, repeat(0)), cycle((1, -1)))))


def alexander_torus2(n: int) -> LaurentPoly:
    """The l = 2 column for every n >= 1.

    Odd n uses (q^(n/2) + q^(-n/2)) / (q^(1/2) + q^(-1/2)); even n flips
    the sign of the low term, giving the two-component link values.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sign = 1 if n % 2 else -1
    num = LaurentPoly.monomial(1, n) + LaurentPoly.monomial(sign, -n)
    den = LaurentPoly.monomial(1, 1) + LaurentPoly.monomial(1, -1)
    return exact_div(num, den)


def delta_identity_check(n_max: int) -> bool:
    """Does D(n, 2) equal the Alexander fermionic [n] for 1 <= n <= n_max?

    Checks the extended l = 2 column against the deformed integers, and the
    closed form against the extended column wherever the closed form applies
    (odd n).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    fermionic = enumerate(qnumbers.pq_numbers(qnumbers.Family.ALEXANDER_FERMIONIC))
    for n, want in islice(fermionic, 1, n_max + 1):
        value = alexander_torus2(n)
        if value != want:
            return False
        if n % 2 and value != alexander_torus(n, 2):
            return False
    return True
