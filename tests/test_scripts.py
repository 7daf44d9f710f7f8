"""The example scripts run end to end as separate processes."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=preexec_fn,
    )


def test_torus_table_column_agrees():
    proc = run_script("torus_table.py", "--bound", "7")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "D(2,3) = q - 1 + q^(-1)" in lines
    assert lines[-1] == (
        "l = 2 column equals the alexander-fermionic integers up to n = 14: True"
    )


@pytest.mark.parametrize("bound", ["1", "0", "-1"])
def test_torus_table_refuses_a_bound_below_2(bound):
    proc = run_script("torus_table.py", "--bound", bound)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--bound must be at least 2" in proc.stderr


@pytest.mark.parametrize("bound", ["111", "4000000"])
def test_torus_table_refuses_a_table_past_the_work_budget(bound):
    # the table's walk steps and terms first pass the budget at --bound 111
    # (4,079,583; 3,929,069 at 110): refused before the first row
    proc = run_script("torus_table.py", "--bound", bound)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        f"error: the table up to --bound {bound} is over the budget of 4000000 "
        "walk steps and terms\n"
    )


def test_number_tables_lists_every_family():
    proc = run_script("number_tables.py", "--max-n", "8")
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("== ")]
    assert headers == [
        "== alexander-fermionic", "== alexander-bosonic", "== jones-fermionic",
        "== jones-bosonic", "== homfly-fermionic", "== homfly-bosonic",
    ]


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_number_tables_refuses_a_max_n_below_1(max_n):
    proc = run_script("number_tables.py", "--max-n", max_n)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--max-n must be at least 1" in proc.stderr


@pytest.mark.parametrize("value", [" 2 ", "0_5", "٣"])
@pytest.mark.parametrize("script, flag", [("number_tables.py", "--max-n"),
                                          ("torus_table.py", "--bound")])
def test_script_flags_take_the_cli_integer_rule(script, flag, value):
    proc = run_script(script, flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {flag}: invalid int value" in proc.stderr


def test_number_tables_refuses_a_max_n_past_the_budget():
    proc = run_script("number_tables.py", "--max-n", "4000001")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--max-n = 4000001 is over the budget of 4000000 values" in proc.stderr


def _limit_address_space():
    # runs in the child only, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_number_tables_refuses_a_table_past_the_work_budget():
    # within the count's cap, but [0]..[max_n] would hold about max_n^2 / 2
    # terms: the meter refuses the first family's list before its header,
    # inside a 1 GiB address space
    proc = run_script("number_tables.py", "--max-n", "4000000",
                      preexec_fn=_limit_address_space)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        "error: [0]..[4000000] is over the budget of 4000000 terms times "
        "64-bit coefficient words\n"
    )
