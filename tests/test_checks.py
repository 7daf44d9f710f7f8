"""The ``verify`` table of ``pqcalc.checks``, and the benchmark's copy of
its check names.

The benchmark's ``verify`` workload compares its report with the fixed
list ``VERIFY_CHECKS`` in ``perfbench/workloads.py``.  That module is
loaded here read-only, so a changed check line fails in the ordinary test
run and not only as a benchmark output mismatch.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pqcalc import checks

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _table_names(suite):
    return [name for names, _ in checks.SUITES[suite] for name in names]


def test_benchmark_reference_lists_the_table_in_order():
    names = [name for suite in checks.SUITES for name in _table_names(suite)]
    assert list(_load_workloads().VERIFY_CHECKS) == names
    assert [check.name for check in checks.run("all", 1)] == names


@pytest.mark.parametrize("suite", checks.SUITES)
def test_run_reports_the_named_checks_of_one_suite(suite):
    report = checks.run(suite, 3)
    assert [check.name for check in report] == _table_names(suite)
    assert all(check.passed and check.detail == "" for check in report)


@pytest.mark.parametrize("suite", [*checks.SUITES, "all"])
def test_run_refuses_a_bound_below_1_for_every_suite(suite):
    # coeff-maps reads no bound, and refuses one below 1 all the same
    with pytest.raises(ValueError, match="^n_max must be at least 1$"):
        checks.run(suite, 0)


def test_run_refuses_an_unknown_suite():
    with pytest.raises(ValueError, match="^unknown suite 'jones'; expected one of: recurrence, "):
        checks.run("jones", 3)
