"""Command-line front end.

Subcommands: number, family-params, pq-number, skein-coeffs, knot-to-link,
torus-alexander, sequence, verify.  Output goes to stdout (``--format text``
or ``--format json``), diagnostics to stderr.  Exit codes: 0 on success,
1 when a verify suite finds a counterexample, 2 on usage or input errors,
3 on an internal error, an exception that no bad input explains.

``_build_parser`` registers the subcommands from one table, one row each:
the help, the entry and fixed defaults the row runs with, and its
arguments in help order.  An entry computes the row's value from the
parsed arguments and returns it, without printing: a ``LaurentPoly``, a
record (``PQPair``, ``SkeinCoefficients``) or a list of polys.  One print
route, ``_print_polys``, renders every such value, a record by its field
names.  Two rows are aliases that run another row's entry with fixed
defaults: ``pq-number`` is ``number --family custom``, and
``knot-to-link`` is ``skein-coeffs --k1 --k2``.  The table is built when
the parser is, so it reads the entries then.  ``verify``'s entry returns
the report of the checks that ``pqcalc.checks`` names and computes, and
its own handler renders it; this module knows none of the checks.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import checks, laurent, qnumbers, skein, torus


# ----------------------------------------------------------------------
# output


def _print_polys(value: laurent.LaurentPoly | tuple | list[laurent.LaurentPoly], fmt: str):
    # one LaurentPoly, a record (PQPair, SkeinCoefficients) printed by its
    # field names, or a list of polys
    if isinstance(value, laurent.LaurentPoly):
        print(laurent.format_poly(value, fmt))
        return
    if isinstance(value, tuple):
        value = value._asdict()
    if fmt == "json":
        print(laurent.format_json(value))
    elif isinstance(value, dict):
        for label, f in value.items():
            print(f"{label} = {f.text()}")
    else:
        for f in value:
            print(f.text())


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
# entries: each computes and returns a row's value


def _number(args) -> laurent.LaurentPoly:
    if args.family == "custom":
        if args.P is None or args.Q is None:
            raise ValueError("--family custom needs --P and --Q expressions")
        pair = qnumbers.PQPair(laurent.parse(args.P), laurent.parse(args.Q))
    elif args.P is not None or args.Q is not None:
        raise ValueError("--P/--Q are only valid with --family custom")
    else:
        pair = qnumbers.family_params(args.family)
    return qnumbers.pq_number(pair, args.n)


def _family_params(args) -> qnumbers.PQPair:
    form = _require_exactly_one(args, [("family", ["family"]), ("link-coefficients", ["l1", "l2"])])
    if form == "family":
        return qnumbers.family_params(args.family)
    return skein.pq_from_link_coeffs(
        skein.SkeinCoefficients(laurent.parse(args.l1), laurent.parse(args.l2)))


def _skein_coeffs(args) -> skein.SkeinCoefficients:
    form = _require_exactly_one(args, [("family", ["family"]), ("knot-coefficients", ["k1", "k2"]),
                                       ("parameter-pair", ["P", "Q"])])
    if form == "family":
        return skein.link_coeffs_from_pq(qnumbers.family_params(args.family))
    if form == "knot-coefficients":
        return skein.knot_to_link_coeffs(
            skein.KnotCoefficients(laurent.parse(args.k1), laurent.parse(args.k2)))
    return skein.link_coeffs_from_pq(qnumbers.PQPair(laurent.parse(args.P), laurent.parse(args.Q)))


def _sequence(args) -> list[laurent.LaurentPoly]:
    coeffs = skein.SkeinCoefficients(laurent.parse(args.l1), laurent.parse(args.l2))
    return skein.recurrence_generate(coeffs, laurent.parse(args.p0), laurent.parse(args.p1),
                                     args.count)


# ----------------------------------------------------------------------
# handlers: each runs its row's entry and renders the value


def _cmd_value(args, fmt: str) -> int:
    _print_polys(args.entry(args), fmt)
    return 0


def _cmd_verify(args, fmt: str) -> int:
    report = args.entry(args)
    passed = sum(check.passed for check in report)
    if fmt == "json":
        import json

        payload = {
            "suite": args.suite,
            "max_n": args.max_n,
            "checks": [check._asdict() for check in report],
            "all_passed": passed == len(report),
        }
        print(json.dumps(payload, indent=2))
    else:
        for check in report:
            line = f"{'PASS' if check.passed else 'FAIL'}  {check.name}"
            if not check.passed and check.detail:
                line += f": {check.detail}"
            print(line)
        print(f"{passed}/{len(report)} checks passed")
    return 0 if passed == len(report) else 1


# ----------------------------------------------------------------------
# parser


_INT_ARG_RE = re.compile(laurent._SIGNED)


def _int_arg(text: str) -> int:
    """An integer argument: ASCII ``[+-]?[0-9]+`` at any length, the
    expression grammar's own signed integer, so that every range check, a
    long value's included, is the library's.  Anything else keeps
    argparse's ``invalid int value`` message."""
    if _INT_ARG_RE.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return laurent._int_from_str(text)


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

    # the command table (see the module docstring); each argument is a
    # flag and add_argument's keywords.  Built on each call, so that an
    # entry patched on this module is the one a row binds
    families = "one of: " + ", ".join(qnumbers.FAMILY_NAMES)
    required, integer = {"required": True}, {"required": True, "type": _int_arg}
    commands = [
        ("number", "deformed integer [n] of a built-in or custom family",
         {"entry": _number},
         [("--family", {"required": True, "help": families + ", custom"}), ("--n", integer),
          ("--P", {"help": "P expression (with --family custom)"}),
          ("--Q", {"help": "Q expression (with --family custom)"})]),
        ("family-params", "parameter pair (P, Q) of a family, or solved from --l1/--l2",
         {"entry": _family_params},
         [("--family", {"help": families}), ("--l1", {"help": "link coefficient l1 expression"}),
          ("--l2", {"help": "link coefficient l2 expression"})]),
        ("pq-number", "deformed integer [n] for explicit parameters P and Q",
         {"entry": _number, "family": "custom"},
         [("--P", required), ("--Q", required), ("--n", integer)]),
        ("skein-coeffs", "link coefficients (l1, l2) from a family, a (P, Q) pair, "
                         "or knot coefficients (k1, k2)",
         {"entry": _skein_coeffs},
         [("--family", {}), ("--k1", {}), ("--k2", {}), ("--P", {}), ("--Q", {})]),
        ("knot-to-link", "link coefficients recovered from knot coefficients",
         {"entry": _skein_coeffs, "family": None, "P": None, "Q": None},
         [("--k1", required), ("--k2", required)]),
        ("torus-alexander", "closed-form torus Alexander polynomial D(n, l), gcd(n, l) = 1",
         {"entry": lambda args: torus.alexander_torus(args.n, args.l)},
         [("--n", integer), ("--l", integer)]),
        ("sequence", "values of the recurrence X[n+1] = l1*X[n] + l2*X[n-1]",
         {"entry": _sequence},
         [("--l1", required), ("--l2", required),
          ("--p0", {"required": True, "help": "seed X[0] expression"}),
          ("--p1", {"required": True, "help": "seed X[1] expression"}),
          ("--count", {**integer, "help": "total values to print, seeds included (at least 2)"})]),
        ("verify", "run self-verification suites; exit 1 on any counterexample",
         {"handler": _cmd_verify, "entry": lambda args: checks.run(args.suite, args.max_n)},
         [("--suite", {"choices": (*checks.SUITES, "all"), "default": "all"}),
          ("--max-n", {"type": _int_arg, "default": 100})]),
    ]
    for name, summary, defaults, arguments in commands:
        p = sub.add_parser(name, parents=[fmt_parent], help=summary)
        p.set_defaults(**{"handler": _cmd_value, **defaults})
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


_OUT_OF_MEMORY = "internal error: MemoryError\n"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its diagnostic; keep codes in {0, 2}
        return exc.code if isinstance(exc.code, int) else 2
    fmt = getattr(args, "format", "text")
    try:
        return args.handler(args, fmt)
    except MemoryError:
        # formatting a message may itself run out of memory
        sys.stderr.write(_OUT_OF_MEMORY)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # an engine bug: say so, and keep it apart from a usage error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
