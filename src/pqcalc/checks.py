"""The ``verify`` checks, named and computed once, and the walks they run.

A walk compares two derivations n by n and gives each side the first
``Counterexample(n, got, want)`` or ``None``.  Every walk keeps one rule: a
side stops once it has its counterexample, and the walk stops once every
side has one, so no value past that is computed.

- ``recurrence_counterexamples``: the skein recurrence against the sum form,
  both drawn as lazy streams, one value at a time.
- ``torus2_counterexamples``: the l = 2 torus column against the Alexander
  fermionic [n] and against the closed form.
- ``homfly_factor_counterexample``: the HOMFLY [n] against p^(n-1) times
  the Alexander [n].

``SUITES`` maps each suite to ``(names, outcomes)`` entries in report order:
``outcomes(max_n)`` gives each name ``None`` (pass), a ``Counterexample`` or
a failure detail.  ``run`` makes ``Check`` records for the CLI to render;
these three serve the CLI and are not re-exported by the package.  Library
calls are looked up on their modules when a check runs, so a function
replaced there is used.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice
from typing import NamedTuple

from . import laurent, qnumbers, skein, torus

__all__ = [
    "Counterexample",
    "first_counterexample",
    "homfly_factor_counterexample",
    "recurrence_counterexamples",
    "torus2_counterexamples",
]


class Counterexample(NamedTuple):
    """The first failing case of a check: at ``n`` the value computed was
    ``got`` where ``want`` was expected."""

    n: int
    got: laurent.LaurentPoly
    want: laurent.LaurentPoly


def first_counterexample(
    cases: Iterable[tuple[int, laurent.LaurentPoly, laurent.LaurentPoly]],
) -> Counterexample | None:
    """The first case ``(n, got, want)`` with ``got != want``, or ``None``.
    The cases after it are not drawn, so a lazy stream stops there."""
    for n, got, want in cases:
        if got != want:
            return Counterexample(n, got, want)
    return None


def recurrence_counterexamples(
    family: qnumbers.Family | skein.PQPair | str, max_n: int
) -> tuple[Counterexample | None, Counterexample | None]:
    """``(closure, agreement)`` up to ``max_n``.  closure: the first n >= 2
    where one step of the ``skein.recurrence`` stream from the sum form's
    [n-2] and [n-1] (got) is not its [n] (want).  agreement: the first n
    where the ``recurrence_numbers`` stream's [n] (got) is not the sum
    form's (want).  One walk of ``pq_numbers``, which draws the recurrence
    stream while the agreement side is open, so it holds two recurrence
    values at a time.

    >>> recurrence_counterexamples("jones-fermionic", 30)
    (None, None)
    """
    laurent._require_int("n_max", max_n, 1, counts=True)
    coeffs = skein.link_coeffs_from_pq(qnumbers.family_params(family))
    recurrence = qnumbers.recurrence_numbers(family)
    closure = agreement = older = newer = None  # newer is the sum form's [n-1]
    for n, want in zip(range(max_n + 1), qnumbers.pq_numbers(family)):
        if agreement is None and (got := next(recurrence)) != want:
            agreement = Counterexample(n, got, want)
        if closure is None and n >= 2:
            got = next(islice(skein.recurrence(coeffs, older, newer), 2, None))
            if got != want:
                closure = Counterexample(n, got, want)
        if closure is not None and agreement is not None:
            break
        older, newer = newer, want
    return closure, agreement


def torus2_counterexamples(
    n_max: int,
) -> tuple[Counterexample | None, Counterexample | None]:
    """``(deformed, closed_form)`` up to ``n_max``, from one walk of the
    l = 2 column that divides each n once.  deformed: the first n where
    ``alexander_torus2(n)`` (got) is not the Alexander fermionic [n]
    (want).  closed_form: the first odd n where ``alexander_torus(n, 2)``
    (got) is not ``alexander_torus2(n)`` (want).

    D(n, 2) at the last odd n, the walk's largest value, is priced before
    the first division.

    >>> torus2_counterexamples(30)
    (None, None)
    """
    laurent._require_int("n_max", n_max, 1, counts=True)
    fermionic = islice(qnumbers.pq_numbers(qnumbers.Family.ALEXANDER_FERMIONIC), 1, None)
    torus._product_form((n_max - 1) | 1, 2)
    deformed = closed_form = None
    for n in range(1, n_max + 1):
        # the closed-form side checks odd n until it has its counterexample
        check_closed = n % 2 == 1 and closed_form is None
        if deformed is not None and not check_closed:
            if closed_form is not None:
                break
            continue
        column = torus.alexander_torus2(n)
        if deformed is None and column != (want := next(fermionic)):
            deformed = Counterexample(n, column, want)
        if check_closed and (got := torus.alexander_torus(n, 2)) != column:
            closed_form = Counterexample(n, got, column)
    return deformed, closed_form


def homfly_factor_counterexample(max_n: int) -> Counterexample | None:
    """The first n in 1..max_n where ``homfly_factorization_check`` fails,
    got the HOMFLY [n] and want p^(n-1) times the Alexander [n], from one
    walk of each sum-form stream."""
    laurent._require_int("n_max", max_n, 1, counts=True)
    homfly = qnumbers.pq_numbers(qnumbers.Family.HOMFLY_FERMIONIC)
    alexander = qnumbers.pq_numbers(qnumbers.Family.ALEXANDER_FERMIONIC)
    cases = islice(zip(range(max_n + 1), homfly, alexander), 1, None)
    return first_counterexample((n, got, qnumbers._homfly_want(n, alex)) for n, got, alex in cases)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, outcome: Counterexample | str | None) -> Check:
    if outcome is None:
        return Check(name, True)
    if isinstance(outcome, Counterexample):
        outcome = f"first counterexample at n={outcome.n}: got {outcome.got}, expected {outcome.want}"
    return Check(name, False, outcome)


def _fields(record) -> str:
    return "(" + ", ".join(f"{name}={getattr(record, name)}" for name in record._fields) + ")"


def _compare(convert, value, want) -> str | None:
    """One coefficient map; a root off the grid fails the check."""
    try:
        got = convert(value)
    except (laurent.NotAPerfectSquareError, skein.NotSolvableOnGridError) as exc:
        return str(exc)
    return None if got == want else f"got {_fields(got)}, expected {_fields(want)}"


def _coeff_maps(label: str) -> tuple[str | None, str | None]:
    """Bosonic link coefficients as knot ones give the fermionic, and those the pair."""
    pair = qnumbers.family_params(f"{label}-fermionic")
    link = skein.link_coeffs_from_pq(pair)
    bosonic = qnumbers.family_params(f"{label}-bosonic")
    knot = skein.KnotCoefficients(*skein.link_coeffs_from_pq(bosonic))
    return (_compare(skein.knot_to_link_coeffs, knot, link),
            _compare(skein.pq_from_link_coeffs, link, pair))


SUITES = {
    "recurrence": tuple(
        ((f"recurrence-closure[{f.value}]", f"sum-agreement[{f.value}]"),
         lambda n, f=f: recurrence_counterexamples(f, n))
        for f in qnumbers.Family
    ),
    "delta-identity": (
        (("torus2-equals-deformed-number", "torus2-matches-closed-form-odd-n"),
         torus2_counterexamples),
    ),
    "homfly-factor": (
        (("homfly-monomial-factor",), lambda n: (homfly_factor_counterexample(n),)),
    ),
    "coeff-maps": tuple(
        ((f"knot-to-link[{label}]", f"pair-from-link-coeffs[{label}]"),
         lambda _n, label=label: _coeff_maps(label))
        for label in ("alexander", "jones")
    ),
}


def run(suite: str, max_n: int) -> list[Check]:
    """The checks of one suite, or of all for ``"all"``, up to ``max_n``,
    from 1 to ``laurent.MAX_WORK``, as for every walk here."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of: {', '.join(SUITES)}, all")
    laurent._require_int("n_max", max_n, 1, counts=True)
    if suite in ("delta-identity", "all"):
        # the torus2 walk's price, before any suite runs
        torus._product_form((max_n - 1) | 1, 2)
    entries = [entry for name in SUITES if suite in (name, "all") for entry in SUITES[name]]
    return [_check(name, outcome) for names, outcomes in entries
            for name, outcome in zip(names, outcomes(max_n), strict=True)]
