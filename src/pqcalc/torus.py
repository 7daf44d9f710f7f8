"""Alexander polynomials of torus knots in closed form.

For coprime n, l the (n, l) torus knot has

    D(n, l) = (q^(nl/2) - q^(-nl/2)) * (q^(1/2) - q^(-1/2))
              -----------------------------------------------
              (q^(n/2) - q^(-n/2)) * (q^(l/2) - q^(-l/2))

which is a genuine Laurent polynomial; the division here is exact by
construction, so a division failure would mean an engine bug, not bad
input.  The l = 2 column extends to even n (where the closed form above
does not apply) via a sign twist in the numerator, and that extended
column reproduces the Alexander fermionic deformed integers exactly.
"""

from __future__ import annotations

from itertools import islice
from math import gcd

from . import qnumbers
from .laurent import LaurentPoly, exact_div


class NotCoprimeError(ValueError):
    """The closed form needs gcd(n, l) = 1."""


def _q_diff(e2: int) -> LaurentPoly:
    # q^(e2/2) - q^(-e2/2), with e2 a doubled exponent
    return LaurentPoly.monomial(1, e2) + LaurentPoly.monomial(-1, -e2)


def alexander_torus(n: int, l: int) -> LaurentPoly:
    """Closed-form D(n, l) for coprime positive n, l."""
    if n < 1 or l < 1:
        raise ValueError("torus parameters must be positive")
    if gcd(n, l) != 1:
        raise NotCoprimeError(f"gcd({n}, {l}) != 1")
    num = _q_diff(n * l) * _q_diff(1)
    den = _q_diff(n) * _q_diff(l)
    return exact_div(num, den)


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
