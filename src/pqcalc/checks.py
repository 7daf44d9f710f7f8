"""The ``verify`` checks, named and computed once.  ``SUITES`` maps each suite
to ``(names, outcomes)`` entries in report order: ``outcomes(max_n)`` gives
each name ``None`` (pass), a ``Counterexample`` or a failure detail.  ``run``
makes ``Check`` records for the CLI to render.  Library calls are looked up
on their modules when a check runs, so a function replaced there is used."""

from __future__ import annotations

from typing import NamedTuple

from . import laurent, qnumbers, skein, torus


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, outcome: qnumbers.Counterexample | str | None) -> Check:
    if outcome is None:
        return Check(name, True)
    if isinstance(outcome, qnumbers.Counterexample):
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
         lambda n, f=f: qnumbers.recurrence_counterexamples(f, n))
        for f in qnumbers.Family
    ),
    "delta-identity": (
        (("torus2-equals-deformed-number", "torus2-matches-closed-form-odd-n"),
         lambda n: torus.torus2_counterexamples(n)),
    ),
    "homfly-factor": (
        (("homfly-monomial-factor",), lambda n: (qnumbers.homfly_factor_counterexample(n),)),
    ),
    "coeff-maps": tuple(
        ((f"knot-to-link[{label}]", f"pair-from-link-coeffs[{label}]"),
         lambda _n, label=label: _coeff_maps(label))
        for label in ("alexander", "jones")
    ),
}


def run(suite: str, max_n: int) -> list[Check]:
    """The checks of one suite, or of all for ``"all"``, up to ``max_n`` >= 1."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of: {', '.join(SUITES)}, all")
    qnumbers._require_bound(max_n)
    entries = [entry for name in SUITES if suite in (name, "all") for entry in SUITES[name]]
    return [_check(name, outcome) for names, outcomes in entries
            for name, outcome in zip(names, outcomes(max_n), strict=True)]
