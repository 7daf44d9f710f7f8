"""End-to-end coverage of the command-line front end."""

import json
import subprocess
import sys

import pytest
from jsonschema import validate

from pqcalc import cli, qnumbers
from pqcalc.cli import SUITE_NAMES, main
from pqcalc.laurent import JSON_SCHEMA, LaurentPoly, parse
from pqcalc.qnumbers import Family, number_sequence, pq_number


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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["number", "--family", "alexander-fermionic", "--n", "three"],
        ["verify", "--suite", "nonsense"],
        ["number", "--family", "alexander-fermionic"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err != ""


@pytest.mark.parametrize("n, l", [("2", "4000001"), ("4300000000", "4300000001")])
def test_oversized_torus_pairs_exit_2(capsys, n, l):
    rc, out, err = run_cli(capsys, "torus-alexander", "--n", n, "--l", l)
    assert rc == 2
    assert out == ""
    assert err == f"error: D({n}, {l}) is over the budget of 4000000 walk steps and terms\n"


def test_internal_errors_exit_3(capsys, monkeypatch):
    def broken(args, fmt):
        raise RuntimeError("engine bug")

    monkeypatch.setitem(cli._HANDLERS, "torus-alexander", broken)
    rc, out, err = run_cli(capsys, "torus-alexander", "--n", "3", "--l", "2")
    assert rc == 3
    assert out == ""
    assert err == "internal error: RuntimeError: engine bug\n"


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
    k, bad = 7, parse("q^5")
    _poison_stream(monkeypatch, Family.ALEXANDER_BOSONIC, k, bad)
    rc, failed = _failures(capsys, fmt, "--suite", "recurrence", "--max-n", "12")
    assert rc == 1
    # got is the recurrence value, expected the sum form
    got = number_sequence(Family.ALEXANDER_BOSONIC, k)[k]
    assert failed == {
        "sum-agreement[alexander-bosonic]":
            f"first counterexample at n={k}: got {got}, expected {bad}",
    }


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
