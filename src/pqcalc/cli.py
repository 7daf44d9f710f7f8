"""Command-line front end.

Subcommands: number, family-params, pq-number, skein-coeffs, knot-to-link,
torus-alexander, sequence, verify.  Output goes to stdout (``--format text``
or ``--format json``), diagnostics to stderr.  Exit codes: 0 on success,
1 when a verify suite finds a counterexample, 2 on usage or input errors,
3 on an internal error, an exception that no bad input explains.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import islice

from . import laurent, qnumbers, skein, torus

SUITE_NAMES = ("recurrence", "delta-identity", "homfly-factor", "coeff-maps")


# ----------------------------------------------------------------------
# verification suites


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _mismatch(name: str, where: str, got, want) -> Check:
    return Check(name, False, f"first counterexample at {where}: got {got}, expected {want}")


def _suite_recurrence(max_n: int) -> list[Check]:
    checks = []
    for family in qnumbers.Family:
        pair = qnumbers.family_params(family)
        seq = qnumbers.number_sequence(family, max_n)
        link = pair.P + pair.Q
        prod = pair.P * pair.Q
        closure = Check(f"recurrence-closure[{family.value}]", True)
        for n in range(1, max_n):
            want = link * seq[n] - prod * seq[n - 1]
            if seq[n + 1] != want:
                closure = _mismatch(closure.name, f"n={n + 1}", seq[n + 1], want)
                break
        checks.append(closure)
        agreement = Check(f"sum-agreement[{family.value}]", True)
        for n, direct in islice(enumerate(qnumbers.pq_numbers(family)), max_n + 1):
            if seq[n] != direct:
                agreement = _mismatch(agreement.name, f"n={n}", seq[n], direct)
                break
        checks.append(agreement)
    return checks


def _suite_delta_identity(max_n: int) -> list[Check]:
    numbers = Check("torus2-equals-deformed-number", True)
    fermionic = enumerate(qnumbers.pq_numbers(qnumbers.Family.ALEXANDER_FERMIONIC))
    for n, want in islice(fermionic, 1, max_n + 1):
        value = torus.alexander_torus2(n)
        if value != want:
            numbers = _mismatch(numbers.name, f"n={n}", value, want)
            break
    closed = Check("torus2-matches-closed-form-odd-n", True)
    for n in range(1, max_n + 1, 2):
        value = torus.alexander_torus(n, 2)
        want = torus.alexander_torus2(n)
        if value != want:
            closed = _mismatch(closed.name, f"n={n}", value, want)
            break
    return [numbers, closed]


def _suite_homfly_factor(max_n: int) -> list[Check]:
    check = Check("homfly-monomial-factor", True)
    pairs = zip(
        qnumbers.pq_numbers(qnumbers.Family.HOMFLY_FERMIONIC),
        qnumbers.pq_numbers(qnumbers.Family.ALEXANDER_FERMIONIC),
    )
    for n, (got, alex) in islice(enumerate(pairs), 1, max_n + 1):
        want = laurent.LaurentPoly.monomial(1, 0, 2 * (n - 1)) * alex
        if got != want:
            check = _mismatch(check.name, f"n={n}", got, want)
            break
    return [check]


def _suite_coeff_maps(_max_n: int) -> list[Check]:
    checks = []
    cases = [
        ("alexander", qnumbers.Family.ALEXANDER_FERMIONIC, qnumbers.Family.ALEXANDER_BOSONIC),
        ("jones", qnumbers.Family.JONES_FERMIONIC, qnumbers.Family.JONES_BOSONIC),
    ]
    for label, fermionic, bosonic in cases:
        fermionic_pair = qnumbers.family_params(fermionic)
        expected = skein.link_coeffs_from_pq(fermionic_pair)
        bosonic_pair = qnumbers.family_params(bosonic)
        kc = skein.KnotCoefficients(
            bosonic_pair.P + bosonic_pair.Q, -(bosonic_pair.P * bosonic_pair.Q)
        )
        try:
            got = skein.knot_to_link_coeffs(kc)
            ok = got == expected
            detail = "" if ok else (
                f"got (l1={got.l1}, l2={got.l2}), expected (l1={expected.l1}, l2={expected.l2})"
            )
        except laurent.NotAPerfectSquareError as exc:
            ok, detail = False, str(exc)
        checks.append(Check(f"knot-to-link[{label}]", ok, detail))
        try:
            back = skein.pq_from_link_coeffs(expected)
            ok = back == fermionic_pair
            detail = "" if ok else (
                f"got (P={back.P}, Q={back.Q}), expected "
                f"(P={fermionic_pair.P}, Q={fermionic_pair.Q})"
            )
        except skein.NotSolvableOnGridError as exc:
            ok, detail = False, str(exc)
        checks.append(Check(f"pair-from-link-coeffs[{label}]", ok, detail))
    return checks


_SUITES = {
    "recurrence": _suite_recurrence,
    "delta-identity": _suite_delta_identity,
    "homfly-factor": _suite_homfly_factor,
    "coeff-maps": _suite_coeff_maps,
}


# ----------------------------------------------------------------------
# output helpers


def _print_poly(f: laurent.LaurentPoly, fmt: str):
    print(laurent.format_poly(f, fmt))


def _print_pairs(pairs: list[tuple[str, laurent.LaurentPoly]], fmt: str):
    if fmt == "json":
        print(json.dumps({label: f.to_json_obj() for label, f in pairs}, indent=2))
    else:
        for label, f in pairs:
            print(f"{label} = {f.text()}")


def _require_exactly_one(args, forms: list[tuple[str, list[str]]]) -> str:
    """Each form is (label, attribute names); exactly one form must be
    fully supplied, partial forms are called out by flag name."""
    complete = []
    for label, attrs in forms:
        values = [getattr(args, attr) for attr in attrs]
        if all(v is not None for v in values):
            complete.append(label)
        elif any(v is not None for v in values):
            flags = " and ".join("--" + attr for attr in attrs)
            raise ValueError(f"the {label} form needs {flags}")
    if len(complete) != 1:
        labels = " | ".join(label for label, _ in forms)
        raise ValueError(f"supply exactly one input form: {labels}")
    return complete[0]


# ----------------------------------------------------------------------
# subcommand handlers


def _number_pair(args) -> qnumbers.PQPair:
    if args.family == "custom":
        if args.P is None or args.Q is None:
            raise ValueError("--family custom needs --P and --Q expressions")
        return qnumbers.PQPair(laurent.parse(args.P), laurent.parse(args.Q))
    if args.P is not None or args.Q is not None:
        raise ValueError("--P/--Q are only valid with --family custom")
    return qnumbers.family_params(args.family)


def _cmd_number(args, fmt: str) -> int:
    pair = _number_pair(args)
    _print_poly(qnumbers.pq_number(pair, args.n), fmt)
    return 0


def _cmd_family_params(args, fmt: str) -> int:
    form = _require_exactly_one(args, [("family", ["family"]), ("link-coefficients", ["l1", "l2"])])
    if form == "family":
        pair = qnumbers.family_params(args.family)
    else:
        coeffs = skein.SkeinCoefficients(laurent.parse(args.l1), laurent.parse(args.l2))
        pair = skein.pq_from_link_coeffs(coeffs)
    _print_pairs([("P", pair.P), ("Q", pair.Q)], fmt)
    return 0


def _cmd_pq_number(args, fmt: str) -> int:
    pair = qnumbers.PQPair(laurent.parse(args.P), laurent.parse(args.Q))
    _print_poly(qnumbers.pq_number(pair, args.n), fmt)
    return 0


def _cmd_skein_coeffs(args, fmt: str) -> int:
    form = _require_exactly_one(
        args,
        [
            ("family", ["family"]),
            ("knot-coefficients", ["k1", "k2"]),
            ("parameter-pair", ["P", "Q"]),
        ],
    )
    if form == "family":
        coeffs = skein.link_coeffs_from_pq(qnumbers.family_params(args.family))
    elif form == "knot-coefficients":
        kc = skein.KnotCoefficients(laurent.parse(args.k1), laurent.parse(args.k2))
        coeffs = skein.knot_to_link_coeffs(kc)
    else:
        pair = qnumbers.PQPair(laurent.parse(args.P), laurent.parse(args.Q))
        coeffs = skein.link_coeffs_from_pq(pair)
    _print_pairs([("l1", coeffs.l1), ("l2", coeffs.l2)], fmt)
    return 0


def _cmd_knot_to_link(args, fmt: str) -> int:
    kc = skein.KnotCoefficients(laurent.parse(args.k1), laurent.parse(args.k2))
    coeffs = skein.knot_to_link_coeffs(kc)
    _print_pairs([("l1", coeffs.l1), ("l2", coeffs.l2)], fmt)
    return 0


def _cmd_torus(args, fmt: str) -> int:
    _print_poly(torus.alexander_torus(args.n, args.l), fmt)
    return 0


def _cmd_sequence(args, fmt: str) -> int:
    coeffs = skein.SkeinCoefficients(laurent.parse(args.l1), laurent.parse(args.l2))
    seq = skein.recurrence_generate(
        coeffs, laurent.parse(args.p0), laurent.parse(args.p1), args.count
    )
    if fmt == "json":
        print(json.dumps([f.to_json_obj() for f in seq], indent=2))
    else:
        for f in seq:
            print(f.text())
    return 0


def _cmd_verify(args, fmt: str) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    checks: list[Check] = []
    for name in names:
        checks.extend(_SUITES[name](args.max_n))
    passed = sum(check.passed for check in checks)
    if fmt == "json":
        payload = {
            "suite": args.suite,
            "max_n": args.max_n,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
            "all_passed": passed == len(checks),
        }
        print(json.dumps(payload, indent=2))
    else:
        for check in checks:
            line = f"{'PASS' if check.passed else 'FAIL'}  {check.name}"
            if not check.passed and check.detail:
                line += f": {check.detail}"
            print(line)
        print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


_HANDLERS = {
    "number": _cmd_number,
    "family-params": _cmd_family_params,
    "pq-number": _cmd_pq_number,
    "skein-coeffs": _cmd_skein_coeffs,
    "knot-to-link": _cmd_knot_to_link,
    "torus-alexander": _cmd_torus,
    "sequence": _cmd_sequence,
    "verify": _cmd_verify,
}


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    # --format is accepted both before and after the subcommand; the
    # subcommand copy uses SUPPRESS so an unset value does not clobber the
    # global one
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS,
        help="output format (default: text)",
    )
    parser = argparse.ArgumentParser(
        prog="pqcalc",
        description="Exact deformed-integer calculus for skein-relation families.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    p = sub.add_parser("number", parents=[fmt_parent],
                       help="deformed integer [n] of a built-in or custom family")
    p.add_argument("--family", required=True,
                   help="one of: " + ", ".join(qnumbers.FAMILY_NAMES) + ", custom")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--P", help="P expression (with --family custom)")
    p.add_argument("--Q", help="Q expression (with --family custom)")

    p = sub.add_parser("family-params", parents=[fmt_parent],
                       help="parameter pair (P, Q) of a family, or solved from --l1/--l2")
    p.add_argument("--family", help="one of: " + ", ".join(qnumbers.FAMILY_NAMES))
    p.add_argument("--l1", help="link coefficient l1 expression")
    p.add_argument("--l2", help="link coefficient l2 expression")

    p = sub.add_parser("pq-number", parents=[fmt_parent],
                       help="deformed integer [n] for explicit parameters P and Q")
    p.add_argument("--P", required=True)
    p.add_argument("--Q", required=True)
    p.add_argument("--n", required=True, type=int)

    p = sub.add_parser("skein-coeffs", parents=[fmt_parent],
                       help="link coefficients (l1, l2) from a family, a (P, Q) pair, "
                            "or knot coefficients (k1, k2)")
    p.add_argument("--family")
    p.add_argument("--k1")
    p.add_argument("--k2")
    p.add_argument("--P")
    p.add_argument("--Q")

    p = sub.add_parser("knot-to-link", parents=[fmt_parent],
                       help="link coefficients recovered from knot coefficients")
    p.add_argument("--k1", required=True)
    p.add_argument("--k2", required=True)

    p = sub.add_parser("torus-alexander", parents=[fmt_parent],
                       help="closed-form torus Alexander polynomial D(n, l), gcd(n, l) = 1")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--l", required=True, type=int)

    p = sub.add_parser("sequence", parents=[fmt_parent],
                       help="values of the recurrence X[n+1] = l1*X[n] + l2*X[n-1]")
    p.add_argument("--l1", required=True)
    p.add_argument("--l2", required=True)
    p.add_argument("--p0", required=True, help="seed X[0] expression")
    p.add_argument("--p1", required=True, help="seed X[1] expression")
    p.add_argument("--count", required=True, type=int,
                   help="total values to print, seeds included (at least 2)")

    p = sub.add_parser("verify", parents=[fmt_parent],
                       help="run self-verification suites; exit 1 on any counterexample")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=100)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic; keep codes in {0, 2}
        return exc.code if isinstance(exc.code, int) else 2
    fmt = getattr(args, "format", "text")
    try:
        return _HANDLERS[args.command](args, fmt)
    except (ValueError, laurent.LaurentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # an engine bug: say so, and keep it apart from a usage error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
