"""End-to-end coverage of the command-line front end."""

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from jsonschema import validate

from pqcalc import qnumbers, skein, torus
from pqcalc.cli import main
from pqcalc.laurent import JSON_SCHEMA, LaurentPoly, NotAPerfectSquareError, _int_from_str, parse
from pqcalc.qnumbers import Family, number_sequence, pq_number

from poly_strategies import nonzero_polys, polys


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


# ----------------------------------------------------------------------
# text output


@pytest.mark.parametrize(
    "argv, want",
    [
        (["number", "--family", "alexander-fermionic", "--n", "3"], "q - 1 + q^(-1)\n"),
        (["number", "--family", "custom", "--P", "q", "--Q", "p", "--n", "2"], "q + p\n"),
        (["pq-number", "--P", "q^(3/2)", "--Q=-q^(1/2)", "--n", "2"],
         "q^(3/2) - q^(1/2)\n"),
        (["torus-alexander", "--n", "3", "--l", "2"], "q - 1 + q^(-1)\n"),
        (["torus-alexander", "--n", "2", "--l", "5"],
         "q^2 - q + 1 - q^(-1) + q^(-2)\n"),
    ],
)
def test_single_poly_text(capsys, argv, want):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0
    assert out == want
    assert err == ""


@pytest.mark.parametrize(
    "argv, want",
    [
        (["family-params", "--family", "homfly-fermionic"],
         "P = p*q^(1/2)\nQ = -p*q^(-1/2)\n"),
        (["family-params", "--l1", "q^(1/2) - q^(-1/2)", "--l2", "1"],
         "P = q^(1/2)\nQ = -q^(-1/2)\n"),
        (["skein-coeffs", "--family", "homfly-fermionic"],
         "l1 = p*q^(1/2) - p*q^(-1/2)\nl2 = p^2\n"),
        (["skein-coeffs", "--k1", "q^3 + q", "--k2", "q^4"],
         "l1 = q^(3/2) - q^(1/2)\nl2 = q^2\n"),
        (["skein-coeffs", "--P", "q", "--Q", "q^(-1)"], "l1 = q + q^(-1)\nl2 = -1\n"),
        (["knot-to-link", "--k1", "q^3 + q", "--k2", "q^4"],
         "l1 = q^(3/2) - q^(1/2)\nl2 = q^2\n"),
        # a value that opens with a minus sign needs the --flag=value
        # spelling, or argparse reads it as an option
        (["knot-to-link", "--k1", "q^3 + q", "--k2=-q^4"],
         "l1 = q^(3/2) - q^(1/2)\nl2 = q^2\n"),
    ],
)
def test_labeled_pair_text(capsys, argv, want):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0
    assert out == want
    assert err == ""


def test_sequence_text(capsys):
    rc, out, _ = run_cli(
        capsys, "sequence", "--l1", "q^(1/2) - q^(-1/2)", "--l2", "1",
        "--p0", "0", "--p1", "1", "--count", "4",
    )
    assert rc == 0
    assert out == "0\n1\nq^(1/2) - q^(-1/2)\nq - 1 + q^(-1)\n"


def test_verify_all_passes(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "30")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "19/19 checks passed"
    assert sum(line.startswith("PASS") for line in lines) == 19
    assert not any(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("suite, count", [
    ("recurrence", 12),
    ("delta-identity", 2),
    ("homfly-factor", 1),
    ("coeff-maps", 4),
])
def test_verify_individual_suites(capsys, suite, count):
    rc, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-n", "12")
    assert rc == 0
    assert out.strip().splitlines()[-1] == f"{count}/{count} checks passed"


# ----------------------------------------------------------------------
# json output


def test_number_json_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys, "--format", "json", "number", "--family", "jones-bosonic", "--n", "4"
    )
    assert rc == 0
    obj = json.loads(out)
    validate(obj, JSON_SCHEMA)
    assert LaurentPoly.from_json_obj(obj) == pq_number(Family.JONES_BOSONIC, 4)


def test_format_flag_position_is_irrelevant(capsys):
    before = run_cli(capsys, "--format", "json", "torus-alexander", "--n", "3", "--l", "5")
    after = run_cli(capsys, "torus-alexander", "--n", "3", "--l", "5", "--format", "json")
    assert before == after
    assert before[0] == 0


def test_pair_json(capsys):
    rc, out, _ = run_cli(
        capsys, "skein-coeffs", "--family", "jones-fermionic", "--format", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert set(obj) == {"l1", "l2"}
    for sub in obj.values():
        validate(sub, JSON_SCHEMA)
    assert LaurentPoly.from_json_obj(obj["l2"]) == parse("q^2")


def test_sequence_json(capsys):
    rc, out, _ = run_cli(
        capsys, "sequence", "--l1", "q", "--l2", "-1", "--p0", "1", "--p1", "q",
        "--count", "4", "--format", "json",
    )
    assert rc == 0
    objs = json.loads(out)
    assert isinstance(objs, list) and len(objs) == 4
    for obj in objs:
        validate(obj, JSON_SCHEMA)
    assert LaurentPoly.from_json_obj(objs[3]) == parse("q^3 - 2q")


def _main_stdout(*argv):
    # capsys cannot be shared between hypothesis examples
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0
    return out.getvalue()


@given(P=nonzero_polys(), Q=nonzero_polys(), p0=polys(), p1=polys())
@settings(deadline=None, max_examples=40)
def test_nested_json_is_the_encoders(P, Q, p0, p1):
    # the pair and sequence documents, byte for byte as json.dumps writes them
    texts = [f.text() for f in (P, Q, p0, p1)]
    coeffs = skein.link_coeffs_from_pq(qnumbers.PQPair(P, Q))
    want = {"l1": coeffs.l1.to_json_obj(), "l2": coeffs.l2.to_json_obj()}
    got = _main_stdout("--format", "json", "skein-coeffs", f"--P={texts[0]}", f"--Q={texts[1]}")
    assert got == json.dumps(want, indent=2) + "\n"
    seq = skein.recurrence_generate(skein.SkeinCoefficients(P, Q), p0, p1, 4)
    want = [f.to_json_obj() for f in seq]
    flags = [f"--{name}={text}" for name, text in zip(("l1", "l2", "p0", "p1"), texts)]
    got = _main_stdout("--format", "json", "sequence", *flags, "--count", "4")
    assert got == json.dumps(want, indent=2) + "\n"


def test_verify_json(capsys):
    rc, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--max-n", "10", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["suite"] == "all"
    assert payload["max_n"] == 10
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 19
    assert all(check["passed"] for check in payload["checks"])
    names = [check["name"] for check in payload["checks"]]
    assert "homfly-monomial-factor" in names


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "number", "--family", "homfly-bosonic", "--n", "9",
                    "--format", "json")
    second = run_cli(capsys, "number", "--family", "homfly-bosonic", "--n", "9",
                     "--format", "json")
    assert first == second


# ----------------------------------------------------------------------
# failure paths


@pytest.mark.parametrize(
    "argv",
    [
        ["number", "--family", "vogel", "--n", "3"],
        ["number", "--family", "alexander-fermionic", "--n", "-1"],
        ["number", "--family", "alexander-fermionic", "--n", "3", "--P", "q"],
        ["number", "--family", "custom", "--n", "2"],
        ["family-params"],
        ["family-params", "--l1", "q"],
        ["family-params", "--family", "alexander-fermionic", "--l1", "q", "--l2", "1"],
        ["family-params", "--l1", "q", "--l2", "q"],
        ["skein-coeffs", "--family", "alexander-fermionic", "--P", "q", "--Q", "p"],
        ["skein-coeffs", "--k1", "q^3 + q"],
        ["knot-to-link", "--k1", "2", "--k2", "1"],
        ["knot-to-link", "--k1", "q", "--k2", "q + 1"],
        ["pq-number", "--P", "q^(1/3)", "--Q", "q", "--n", "2"],
        ["pq-number", "--P", "q +", "--Q", "q", "--n", "2"],
        ["torus-alexander", "--n", "2", "--l", "2"],
        ["torus-alexander", "--n", "0", "--l", "3"],
        ["sequence", "--l1", "q", "--l2", "1", "--p0", "0", "--p1", "1", "--count", "1"],
        ["verify", "--max-n", "0"],
    ],
)
def test_input_errors_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ")
    assert out == ""


# each usage error's argv, and the last line argparse writes for it.  An
# invalid choice is pinned as a prefix and its list of choices, whose
# quoting argparse changed in 3.12
_USAGE_ERRORS = {
    (): "pqcalc: error: the following arguments are required: subcommand",
    ("no-such-command",): (
        "pqcalc: error: argument subcommand: invalid choice: 'no-such-command' (choose from ",
        ["number", "family-params", "pq-number", "skein-coeffs", "knot-to-link",
         "torus-alexander", "sequence", "verify"],
    ),
    ("number", "--family", "alexander-fermionic", "--n", "three"):
        "pqcalc number: error: argument --n: invalid int value: 'three'",
    ("verify", "--suite", "nonsense"): (
        "pqcalc verify: error: argument --suite: invalid choice: 'nonsense' (choose from ",
        ["recurrence", "delta-identity", "homfly-factor", "coeff-maps", "all"],
    ),
    ("number", "--family", "alexander-fermionic"):
        "pqcalc number: error: the following arguments are required: --n",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _USAGE_ERRORS])
def test_usage_errors_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: pqcalc ")
    last = err.splitlines()[-1]
    want = _USAGE_ERRORS[tuple(argv)]
    if isinstance(want, str):
        assert last == want
    else:
        prefix, choices = want
        assert last.startswith(prefix) and last.endswith(")")
        assert [c.strip("'") for c in last[len(prefix):-1].split(", ")] == choices


_FAMILIES = ", ".join(qnumbers.FAMILY_NAMES)

_COMMON_HELP = ["-h, --help show this help message and exit",
                "--format {text,json} output format (default: text)"]

# each command's usage, on one line, and the rest of its help in order: a
# flag with its metavar and help text, and, at the top level, the
# description and each subcommand with its help.  The options of every
# subcommand begin with _COMMON_HELP
_HELP = {
    None: (
        "usage: pqcalc [-h] [--format {text,json}] subcommand ...",
        [
            "Exact deformed-integer calculus for skein-relation families.",
            "positional arguments:",
            "subcommand",
            "number deformed integer [n] of a built-in or custom family",
            "family-params parameter pair (P, Q) of a family, or solved from --l1/--l2",
            "pq-number deformed integer [n] for explicit parameters P and Q",
            "skein-coeffs link coefficients (l1, l2) from a family, a (P, Q) pair, "
            "or knot coefficients (k1, k2)",
            "knot-to-link link coefficients recovered from knot coefficients",
            "torus-alexander closed-form torus Alexander polynomial D(n, l), gcd(n, l) = 1",
            "sequence values of the recurrence X[n+1] = l1*X[n] + l2*X[n-1]",
            "verify run self-verification suites; exit 1 on any counterexample",
            "options:",
            *_COMMON_HELP,
        ],
    ),
    "number": (
        "usage: pqcalc number [-h] [--format {text,json}] --family FAMILY --n N [--P P] [--Q Q]",
        [f"--family FAMILY one of: {_FAMILIES}, custom", "--n N",
         "--P P P expression (with --family custom)", "--Q Q Q expression (with --family custom)"],
    ),
    "family-params": (
        "usage: pqcalc family-params [-h] [--format {text,json}] [--family FAMILY] "
        "[--l1 L1] [--l2 L2]",
        [f"--family FAMILY one of: {_FAMILIES}", "--l1 L1 link coefficient l1 expression",
         "--l2 L2 link coefficient l2 expression"],
    ),
    "pq-number": (
        "usage: pqcalc pq-number [-h] [--format {text,json}] --P P --Q Q --n N",
        ["--P P", "--Q Q", "--n N"],
    ),
    "skein-coeffs": (
        "usage: pqcalc skein-coeffs [-h] [--format {text,json}] [--family FAMILY] "
        "[--k1 K1] [--k2 K2] [--P P] [--Q Q]",
        ["--family FAMILY", "--k1 K1", "--k2 K2", "--P P", "--Q Q"],
    ),
    "knot-to-link": (
        "usage: pqcalc knot-to-link [-h] [--format {text,json}] --k1 K1 --k2 K2",
        ["--k1 K1", "--k2 K2"],
    ),
    "torus-alexander": (
        "usage: pqcalc torus-alexander [-h] [--format {text,json}] --n N --l L",
        ["--n N", "--l L"],
    ),
    "sequence": (
        "usage: pqcalc sequence [-h] [--format {text,json}] --l1 L1 --l2 L2 --p0 P0 "
        "--p1 P1 --count COUNT",
        ["--l1 L1", "--l2 L2", "--p0 P0 seed X[0] expression", "--p1 P1 seed X[1] expression",
         "--count COUNT total values to print, seeds included (at least 2)"],
    ),
    "verify": (
        "usage: pqcalc verify [-h] [--format {text,json}] "
        "[--suite {recurrence,delta-identity,homfly-factor,coeff-maps,all}] [--max-n MAX_N]",
        ["--suite {recurrence,delta-identity,homfly-factor,coeff-maps,all}", "--max-n MAX_N"],
    ),
}


@pytest.mark.parametrize("command", _HELP, ids=lambda command: command or "top-level")
def test_help_names_every_flag_with_its_help(capsys, monkeypatch, command):
    # a fixed width, so that argparse wraps every run alike; the checks
    # below ignore where it wraps
    monkeypatch.setenv("COLUMNS", "80")
    usage, entries = _HELP[command]
    rc, out, err = run_cli(capsys, *([command] if command else []), "--help")
    assert (rc, err) == (0, "")
    assert " ".join(out.split("\n\n")[0].split()) == usage
    rest = entries if command is None else ["options:", *_COMMON_HELP, *entries]
    assert "".join(out.split()) == "".join(usage.split() + " ".join(rest).split())


@pytest.mark.parametrize("n, l", [("2", "4000001"), ("4300000000", "4300000001")])
def test_oversized_torus_pairs_exit_2(capsys, n, l):
    rc, out, err = run_cli(capsys, "torus-alexander", "--n", n, "--l", l)
    assert rc == 2
    assert out == ""
    assert err == f"error: D({n}, {l}) is over the budget of 4000000 walk steps and terms\n"


_LONG = "1" + "0" * 5000  # past CPython's 4300-digit int/str limit
_LONG_PLUS_1 = _LONG[:-1] + "1"


@pytest.mark.parametrize(
    "argv, quoted",
    [
        (["number", "--family", "alexander-fermionic", "--n", _LONG], f"[n] at n = {_LONG} "),
        (["pq-number", "--P", "q", "--Q", "1", "--n", _LONG], f"[n] at n = {_LONG} "),
        (["torus-alexander", "--n", _LONG, "--l", _LONG_PLUS_1], f"D({_LONG}, {_LONG_PLUS_1}) "),
    ],
    ids=["number", "pq-number", "torus-alexander"],
)
def test_long_integer_arguments_reach_the_budget_error(capsys, argv, quoted):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: " + quoted)
    assert "is over the budget of 4000000" in err


@pytest.mark.parametrize("n, l", [("2", _LONG_PLUS_1), (_LONG_PLUS_1, "2")],
                         ids=["short-long", "long-short"])
def test_a_small_and_a_long_torus_parameter_exit_2(capsys, n, l):
    rc, out, err = run_cli(capsys, "torus-alexander", "--n", n, "--l", l)
    assert (rc, out) == (2, "")
    assert err == f"error: D({n}, {l}) is over the budget of 4000000 walk steps and terms\n"


@pytest.mark.parametrize("suite", ["all", "delta-identity"])
def test_a_verify_walk_past_the_budget_exits_2_at_once(suite):
    # --max-n 3999999 is within the bound's cap, but the walk's last
    # D(3999999, 2) is not: refused before any suite, not after days of walking
    proc = subprocess.run(
        [sys.executable, "-m", "pqcalc", "verify", "--suite", suite, "--max-n", "3999999"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: D(3999999, 2) is over the budget of 4000000 walk steps and terms\n"
    )


@pytest.mark.parametrize(
    "value",
    [_LONG + "x", "-" + _LONG + "_0", "+-" + _LONG, "3x", ""],
    ids=["long-trailing-x", "long-underscore", "long-two-signs", "short", "empty"],
)
def test_malformed_integer_arguments_stay_usage_errors(capsys, value):
    rc, out, err = run_cli(capsys, "torus-alexander", "--n", "3", f"--l={value}")
    assert (rc, out) == (2, "")
    assert err.endswith(f"error: argument --l: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "value, want",
    [(" 5 ", None), ("+5", 5), ("0_5", None), ("-" + _LONG, -(10**5000)), ("\u0663", None)],
    ids=["spaces", "plus", "underscore", "long-negative", "arabic-indic-digit"],
)
def test_integer_arguments_take_what_int_takes(capsys, value, want):
    # only the values int takes that are ASCII [+-]?[0-9]+, the rule of the
    # expression grammar's integers: " 5 ", "0_5" and "\u0663" are usage errors
    rc, out, err = run_cli(capsys, "number", "--family", "alexander-fermionic", f"--n={value}")
    if want is None:
        assert (rc, out) == (2, "")
        assert err.endswith(f"error: argument --n: invalid int value: {value!r}\n")
    elif want < 0:
        assert (rc, out, err) == (2, "", "error: n must be at least 0\n")
    else:
        assert (rc, err) == (0, "")
        assert out == pq_number(Family.ALEXANDER_FERMIONIC, want).text() + "\n"


# the two count flags: the argv before the flag, the flag, and the
# library's refusal of a value below its least
_COUNT_FLAGS = {
    "count": (["sequence", "--l1", "q", "--l2", "1", "--p0", "0", "--p1", "1"], "--count",
              "count must be at least 2"),
    "max-n": (["verify", "--suite", "delta-identity"], "--max-n", "n_max must be at least 1"),
}


@pytest.mark.parametrize("argv, flag, least", _COUNT_FLAGS.values(), ids=_COUNT_FLAGS)
@pytest.mark.parametrize(
    "value, want",
    [(" 5 ", None), ("+5", 5), ("0_5", None), ("-" + _LONG, -(10**5000)), ("\u0663", None)],
    ids=["spaces", "plus", "underscore", "long-negative", "arabic-indic-digit"],
)
def test_count_flags_take_what_int_takes(capsys, argv, flag, least, value, want):
    # one integer-flag parser: --count and --max-n take what --n takes
    rc, out, err = run_cli(capsys, *argv, f"{flag}={value}")
    if want is None:
        assert (rc, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")
    elif want < 0:
        assert (rc, out, err) == (2, "", f"error: {least}\n")
    else:
        assert (rc, err) == (0, "")
        assert out == run_cli(capsys, *argv, flag, str(want))[1]


BUDGET_ROWS = [
    ["number", "--family", "alexander-fermionic", "--n", "100000000"],
    ["number", "--family", "custom", "--P", "q+1", "--Q", "1", "--n", "20000"],
    ["number", "--family", "custom", "--P", "1000000000*q", "--Q", "1", "--n", "60000"],
    # the radicand 1 + 4*q^(-1/2) + 4*q^(-2000), whose root takes O(box^2) work
    ["family-params", "--l1", "1", "--l2", "q^(-1/2) + q^(-2000)"],
    [*_COUNT_FLAGS["count"][0], "--count", _LONG],
    [*_COUNT_FLAGS["max-n"][0], "--max-n", _LONG],
    # within the count's cap, but the values grow: by a term and a bit a
    # step, and by about 1.6 bits a step
    ["sequence", "--l1", "q+1", "--l2", "1", "--p0", "0", "--p1", "1", "--count", "100000"],
    ["sequence", "--l1", "3", "--l2", "1", "--p0", "0", "--p1", "1", "--count", "1000000"],
]


def _limit_address_space():
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oversized_numbers_exit_2_under_a_memory_limit(fmt):
    for argv in BUDGET_ROWS:
        proc = subprocess.run(
            [sys.executable, "-m", "pqcalc", "--format", fmt, *argv],
            capture_output=True, text=True, timeout=300, preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "over the budget of 4000000" in proc.stderr


@pytest.mark.parametrize("var", ["q", "p"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exponents_past_the_int_str_limit(capsys, var, fmt):
    nines = "9" * 5000
    rc, out, err = run_cli(
        capsys, "--format", fmt, "number", "--family", "custom",
        "--P", f"{var}^{nines}", "--Q", "1", "--n", "2",
    )
    assert (rc, err) == (0, "")
    want = parse(f"{var}^{nines} + 1")
    if fmt == "text":
        assert out == f"{var}^{nines} + 1\n"
    else:
        got = json.loads(out, parse_int=_int_from_str)
        assert got["terms"][0]["exp2"][var] == 2 * (10**5000 - 1)
        assert LaurentPoly.from_json_obj(got) == want


def test_off_grid_exponent_past_the_int_str_limit_is_a_grid_error(capsys):
    nines = "9" * 5000
    rc, out, err = run_cli(
        capsys, "number", "--family", "custom", "--P", f"q^(1/{nines})", "--Q", "1", "--n", "2"
    )
    assert (rc, out) == (2, "")
    assert err == f"error: exponent 1/{nines} is not an integer multiple of 1/2 (at position 3)\n"


def test_internal_errors_exit_3(capsys, monkeypatch):
    # the row's entry reaches the library's torus value through its module
    def broken(n, l):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(torus, "alexander_torus", broken)
    rc, out, err = run_cli(capsys, "torus-alexander", "--n", "3", "--l", "2")
    assert rc == 3
    assert out == ""
    assert err == "internal error: RuntimeError: engine bug\n"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(pair, n):
        raise MemoryError

    monkeypatch.setattr(qnumbers, "pq_number", exhausted)
    rc, out, err = run_cli(capsys, "number", "--family", "alexander-fermionic", "--n", "3")
    assert rc == 3
    assert out == ""
    assert err == "internal error: MemoryError\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coefficients_past_the_int_str_limit(capsys, fmt):
    # [500] of P = 10^9 q, Q = 1 has coefficients of up to 4492 digits,
    # past CPython's default 4300-digit int/str conversion limit
    argv = ["number", "--family", "custom", "--P", "1000000000*q", "--Q", "1", "--n", "500"]
    rc, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert rc == 0
    assert err == ""
    want = pq_number(qnumbers.PQPair(parse("1000000000*q"), LaurentPoly.one()), 500)
    got = parse(out) if fmt == "text" else LaurentPoly.from_json_obj(json.loads(out))
    assert got == want


def test_documented_failure_names_the_root(capsys):
    rc, _, err = run_cli(capsys, "knot-to-link", "--k1", "2", "--k2", "1")
    assert rc == 2
    assert "l1 root failed" in err


def test_verify_reports_counterexample(capsys, monkeypatch):
    monkeypatch.setattr("pqcalc.torus.alexander_torus2", lambda n: parse("q"))
    rc, out, _ = run_cli(capsys, "verify", "--suite", "delta-identity", "--max-n", "10")
    assert rc == 1
    lines = out.strip().splitlines()
    assert lines[-1] == "0/2 checks passed"
    assert any(line.startswith("FAIL") and "n=1" in line for line in lines)


def test_verify_failure_json(capsys, monkeypatch):
    monkeypatch.setattr("pqcalc.torus.alexander_torus2", lambda n: parse("q"))
    rc, out, _ = run_cli(
        capsys, "verify", "--suite", "delta-identity", "--max-n", "10",
        "--format", "json",
    )
    assert rc == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert any(
        not check["passed"] and "counterexample" in check["detail"]
        for check in payload["checks"]
    )


def _poison_stream(monkeypatch, target: Family, k: int, bad: LaurentPoly):
    """Make the sum-form stream of ``target`` yield ``bad`` in place of [k]."""
    real = qnumbers.pq_numbers

    def poisoned(family):
        hit = qnumbers.family_params(family) == qnumbers.family_params(target)
        for n, value in enumerate(real(family)):
            yield bad if hit and n == k else value

    monkeypatch.setattr("pqcalc.qnumbers.pq_numbers", poisoned)


def _failures(capsys, fmt, *argv):
    """Exit code and {check name: detail} of the failed checks."""
    rc, out, _ = run_cli(capsys, "verify", *argv, "--format", fmt)
    if fmt == "json":
        payload = json.loads(out)
        assert payload["all_passed"] is False
        return rc, {c["name"]: c["detail"] for c in payload["checks"] if not c["passed"]}
    failed = {}
    for line in out.splitlines():
        if line.startswith("FAIL  "):
            name, detail = line[len("FAIL  "):].split(": ", 1)
            failed[name] = detail
    return rc, failed


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_sum_agreement_counterexample(capsys, monkeypatch, fmt):
    # the recurrence's [k] of one family replaced: only the comparison with
    # the sum form reads the recurrence stream, so the closure check still
    # passes
    k, bad, target = 7, parse("q^5"), Family.ALEXANDER_BOSONIC
    real = qnumbers.recurrence_numbers

    def poisoned(family):
        hit = qnumbers.family_params(family) == qnumbers.family_params(target)
        for n, value in enumerate(real(family)):
            yield bad if hit and n == k else value

    monkeypatch.setattr("pqcalc.qnumbers.recurrence_numbers", poisoned)
    rc, failed = _failures(capsys, fmt, "--suite", "recurrence", "--max-n", "12")
    assert rc == 1
    # got is the recurrence value, expected the sum form
    assert failed == {
        "sum-agreement[alexander-bosonic]":
            f"first counterexample at n={k}: got {bad}, expected {pq_number(target, k)}",
    }


def test_verify_recurrence_closure_counterexample(capsys, monkeypatch):
    # the sum form's [k] of one family replaced: the step from its [k-1]
    # and [k-2] misses it at n = k, and so does the recurrence's [k]
    k, bad, target = 6, parse("q^7 - p"), Family.JONES_BOSONIC
    _poison_stream(monkeypatch, target, k, bad)
    right = number_sequence(target, k)[k]
    detail = f"first counterexample at n={k}: got {right}, expected {bad}"
    assert str(right) == "q^15 + q^13 + q^11 + q^9 + q^7 + q^5"
    argv = ("verify", "--suite", "recurrence", "--max-n", "12")

    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        f"FAIL  recurrence-closure[jones-bosonic]: {detail}",
        f"FAIL  sum-agreement[jones-bosonic]: {detail}",
        "10/12 checks passed",
    ]

    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert [c for c in payload["checks"] if not c["passed"]] == [
        {"name": "recurrence-closure[jones-bosonic]", "passed": False, "detail": detail},
        {"name": "sum-agreement[jones-bosonic]", "passed": False, "detail": detail},
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_homfly_factor_counterexample(capsys, monkeypatch, fmt):
    k, bad = 5, parse("q")
    _poison_stream(monkeypatch, Family.HOMFLY_FERMIONIC, k, bad)
    rc, failed = _failures(capsys, fmt, "--suite", "homfly-factor", "--max-n", "12")
    assert rc == 1
    # got is the homfly [n], expected p^(n-1) times the alexander [n]
    want = LaurentPoly.monomial(1, 0, 2 * (k - 1)) * pq_number(Family.ALEXANDER_FERMIONIC, k)
    assert failed == {
        "homfly-monomial-factor": f"first counterexample at n={k}: got {bad}, expected {want}",
    }


def _raises(exc):
    def convert(_coeffs):
        raise exc
    return convert


WRONG_LINK = skein.SkeinCoefficients(parse("q"), parse("p"))
WRONG_PAIR = qnumbers.PQPair(parse("q^3"), parse("-p"))


@pytest.mark.parametrize("knot_to_link, pq_from_link, want", [
    (lambda kc: WRONG_LINK, _raises(skein.NotSolvableOnGridError("off the grid")), [
        "FAIL  knot-to-link[alexander]: got (l1=q, l2=p), "
        "expected (l1=q^(1/2) - q^(-1/2), l2=1)",
        "FAIL  pair-from-link-coeffs[alexander]: off the grid",
        "FAIL  knot-to-link[jones]: got (l1=q, l2=p), expected (l1=q^(3/2) - q^(1/2), l2=q^2)",
        "FAIL  pair-from-link-coeffs[jones]: off the grid",
        "0/4 checks passed",
    ]),
    (_raises(NotAPerfectSquareError("no root")), lambda coeffs: WRONG_PAIR, [
        "FAIL  knot-to-link[alexander]: no root",
        "FAIL  pair-from-link-coeffs[alexander]: got (P=q^3, Q=-p), "
        "expected (P=q^(1/2), Q=-q^(-1/2))",
        "FAIL  knot-to-link[jones]: no root",
        "FAIL  pair-from-link-coeffs[jones]: got (P=q^3, Q=-p), expected (P=q^(3/2), Q=-q^(1/2))",
        "0/4 checks passed",
    ]),
])
def test_verify_coeff_maps_failures(capsys, monkeypatch, knot_to_link, pq_from_link, want):
    monkeypatch.setattr("pqcalc.skein.knot_to_link_coeffs", knot_to_link)
    monkeypatch.setattr("pqcalc.skein.pq_from_link_coeffs", pq_from_link)
    rc, out, err = run_cli(capsys, "verify", "--suite", "coeff-maps")
    assert (rc, out.splitlines(), err) == (1, want, "")


def test_verify_coeff_maps_other_errors_exit_3(capsys, monkeypatch):
    monkeypatch.setattr("pqcalc.skein.pq_from_link_coeffs", _raises(KeyError("bug")))
    rc, out, err = run_cli(capsys, "verify", "--suite", "coeff-maps")
    assert (rc, out, err) == (3, "", "internal error: KeyError: 'bug'\n")


# ----------------------------------------------------------------------
# alias subcommands


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("alias, canonical, code", [
    (["pq-number", "--P", "q^(3/2)", "--Q=-q^(1/2)", "--n", "5"],
     ["number", "--family", "custom", "--P", "q^(3/2)", "--Q=-q^(1/2)", "--n", "5"], 0),
    (["pq-number", "--P", "q +", "--Q", "q", "--n", "2"],
     ["number", "--family", "custom", "--P", "q +", "--Q", "q", "--n", "2"], 2),
    (["knot-to-link", "--k1", "q^3 + q", "--k2", "q^4"],
     ["skein-coeffs", "--k1", "q^3 + q", "--k2", "q^4"], 0),
    (["knot-to-link", "--k1", "2", "--k2", "1"],
     ["skein-coeffs", "--k1", "2", "--k2", "1"], 2),
])
def test_alias_matches_its_canonical_spelling(capsys, fmt, alias, canonical, code):
    got = run_cli(capsys, "--format", fmt, *alias)
    assert got == run_cli(capsys, "--format", fmt, *canonical)
    assert got[0] == code


# ----------------------------------------------------------------------
# real process


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pqcalc", "number", "--family",
         "alexander-fermionic", "--n", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "q - 1 + q^(-1)\n"


# ----------------------------------------------------------------------
# value subcommands and verify --format json, pinned byte for byte


def _digest(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return hashlib.sha256(f"{rc}\n{out}\0{err}".encode()).hexdigest()


def _verify_json_digest(capsys):
    return _digest(capsys, "verify", "--format", "json", "--max-n", "30")


def test_verify_json_bytes_are_pinned(capsys):
    # every suite passing; key order name, passed, detail in each check
    assert _verify_json_digest(capsys) == (
        "e700313093773fafbc9333c4416a59e9578b128e5a338e4e553d18a4f94ce65c"
    )


def test_verify_json_failure_bytes_are_pinned(capsys, monkeypatch):
    real = skein.pq_from_link_coeffs

    def swapped_for_jones(coeffs):
        pair = real(coeffs)
        return pair if coeffs.l2 == 1 else qnumbers.PQPair(pair.Q, pair.P)

    monkeypatch.setattr("pqcalc.skein.pq_from_link_coeffs", swapped_for_jones)
    rc, out, _ = run_cli(capsys, "verify", "--format", "json", "--max-n", "30")
    failed = [check for check in json.loads(out)["checks"] if not check["passed"]]
    assert (rc, failed) == (1, [{
        "name": "pair-from-link-coeffs[jones]",
        "passed": False,
        "detail": "got (P=-q^(1/2), Q=q^(3/2)), expected (P=q^(3/2), Q=-q^(1/2))",
    }])
    assert _verify_json_digest(capsys) == (
        "4f0f03845bdefabc78f1da405b91cc65667526bff80e47168e1e8528636b119c"
    )


# every value row in each of its input forms, and one input error per row:
# the argv, then the digests of (rc, stdout, stderr) in text and in JSON
_VALUE_DIGESTS = {
    "number[family]": (
        ["number", "--family", "jones-bosonic", "--n", "5"],
        "71174553005b30382b828f2c13f771b0f15f68771fb5a7f694eb03e0830b8c48",
        "43c944acd999fb1cb7ef150e801be493ee22a1b9d0e9b805821a5fc6a804a779"),
    "number[custom]": (
        ["number", "--family", "custom", "--P", "q+1", "--Q", "p", "--n", "3"],
        "1658d936f7924ddc1cf35cc49f7a4976da6cddaff33f440ef27831019719d7db",
        "360cc7e1a1a48978197ed2793e5d18a85bec2598c829f673021aba2287fbb12f"),
    "pq-number": (
        ["pq-number", "--P", "q^(3/2)", "--Q=-q^(1/2)", "--n", "4"],
        "b2b7936e0411f3edec5cf08fa5bc44688bc6710768444ab8b223fac159dc1781",
        "080dabff4146249fdba1c1a1e5be69356299aa2074dfc0c45d5bc294b0777408"),
    "family-params[family]": (
        ["family-params", "--family", "homfly-fermionic"],
        "2f080d7a104ded17025b90b23705596ba5de2b89d4f775c22745a613be6cb715",
        "cf9b935a83a53ef3818327bf5743762cbdceb1e1f27c92154f37d9a02b4a4c3e"),
    "family-params[l1/l2]": (
        ["family-params", "--l1", "q^(1/2) - q^(-1/2)", "--l2", "1"],
        "54c8e43fce3855b2b316821120572717376ad137f5528e89d8ab2144199b8ea2",
        "7413304a92cfb3a865614fc2c2dc1a2557fe62d3dc1ed83392111fb40a12dc65"),
    "skein-coeffs[family]": (
        ["skein-coeffs", "--family", "jones-fermionic"],
        "a4a85fa1773f5275aeb314d6571796490e36298c8c859b0edc666c813038673a",
        "9c8dd4c5750d9a35771159efadf1002ca83b75b12cd35ba1b9d12b0efcc85ac5"),
    "skein-coeffs[k1/k2]": (
        ["skein-coeffs", "--k1", "q^3 + q", "--k2", "q^4"],
        "a4a85fa1773f5275aeb314d6571796490e36298c8c859b0edc666c813038673a",
        "9c8dd4c5750d9a35771159efadf1002ca83b75b12cd35ba1b9d12b0efcc85ac5"),
    "skein-coeffs[P/Q]": (
        ["skein-coeffs", "--P", "q", "--Q", "q^(-1)"],
        "c40915e49c39222093ef76377a4eb44ccc5848c3107b49f41ab151f2f585d877",
        "b1c0f15678b7410b14eb83419932d8e0fc3e2849519318e4498607200d4dbf53"),
    "knot-to-link": (
        ["knot-to-link", "--k1", "q^3 + q", "--k2=-q^4"],
        "a4a85fa1773f5275aeb314d6571796490e36298c8c859b0edc666c813038673a",
        "9c8dd4c5750d9a35771159efadf1002ca83b75b12cd35ba1b9d12b0efcc85ac5"),
    "torus-alexander": (
        ["torus-alexander", "--n", "3", "--l", "5"],
        "b8128c55c068441e401d45d9dd70854de8bd7e5c9c133025528b89d4713e5d75",
        "aa98b06d5a8e7193ca55f608c0db4a2d42a8cd6f9ea6c17739bb1816c8ed3426"),
    "sequence": (
        ["sequence", "--l1", "q", "--l2=-1", "--p0", "1", "--p1", "q", "--count", "5"],
        "00887dbe150331a0791e83aa42325ffa09f1dabf65c0a146fd9cbb4a3d6e989d",
        "924c2bd55f7f1b59d05d19c32be5ddd7fa44f332d881dd001134b9c79a1e4c61"),
    "number[error]": (
        ["number", "--family", "vogel", "--n", "3"],
        "996f61a39a71e0823e9577d128b3790e591bd18e4613e6105c72ae3cd4351f1b",
        "996f61a39a71e0823e9577d128b3790e591bd18e4613e6105c72ae3cd4351f1b"),
    "pq-number[error]": (
        ["pq-number", "--P", "q^(1/3)", "--Q", "q", "--n", "2"],
        "adc6789ddd1ae9af807575f250f73b958c5fba9ad99fa49c9d3cfbf536e4619e",
        "adc6789ddd1ae9af807575f250f73b958c5fba9ad99fa49c9d3cfbf536e4619e"),
    "family-params[error]": (
        ["family-params", "--l1", "q"],
        "5bc6476bcb6d67273b374f3e5fed4054c3ad6fccf9ca1b48d4b75c29f29f725d",
        "5bc6476bcb6d67273b374f3e5fed4054c3ad6fccf9ca1b48d4b75c29f29f725d"),
    "skein-coeffs[error]": (
        ["skein-coeffs", "--family", "alexander-fermionic", "--P", "q", "--Q", "p"],
        "c147dc14efa90b755cc09cf770f00241cdb8b080916dc74e46ff5d7661fffb8c",
        "c147dc14efa90b755cc09cf770f00241cdb8b080916dc74e46ff5d7661fffb8c"),
    "knot-to-link[error]": (
        ["knot-to-link", "--k1", "2", "--k2", "1"],
        "4a2e3b1c45d1891234225811ae0755e817daebcb80157f18cbcf83c21b5d170c",
        "4a2e3b1c45d1891234225811ae0755e817daebcb80157f18cbcf83c21b5d170c"),
    "torus-alexander[error]": (
        ["torus-alexander", "--n", "2", "--l", "2"],
        "b23fd49c2a0fb9d8dbf77343e7cd69105d1e3d574fa7fa9104552c18f976dca3",
        "b23fd49c2a0fb9d8dbf77343e7cd69105d1e3d574fa7fa9104552c18f976dca3"),
    "sequence[error]": (
        ["sequence", "--l1", "q", "--l2", "1", "--p0", "0", "--p1", "1", "--count", "1"],
        "3a059e921bc609c150fabfafeaa05aa536c6fcd6a68a2a85bbecdc0b4a312c5d",
        "3a059e921bc609c150fabfafeaa05aa536c6fcd6a68a2a85bbecdc0b4a312c5d"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, text, json_", _VALUE_DIGESTS.values(), ids=_VALUE_DIGESTS)
def test_value_subcommand_bytes_are_pinned(capsys, fmt, argv, text, json_):
    want = text if fmt == "text" else json_
    assert _digest(capsys, "--format", fmt, *argv) == want
