"""Tests of the benchmark itself, at reduced size.

Run from the root of the repository:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def _traced_counts(jobs):
    counts = run.run_pass(jobs, trace=True)["trace"]
    return {k: v for k, v in counts.items() if not k.endswith("self_s")}


def test_references_match_the_program_on_every_workload():
    for workload in workloads.WORKLOADS:
        result = run.run_pass(workloads.build(workload, 1, small=True), trace=False)
        assert result["failed"] == []


def test_same_seed_same_counts_other_seed_other_inputs():
    for workload in ("torus", "requests"):
        jobs = workloads.build(workload, 7, small=True)
        assert [j.wire() for j in jobs] == [j.wire() for j in workloads.build(workload, 7, small=True)]
        assert _traced_counts(jobs) == _traced_counts(jobs)
        other = workloads.build(workload, 8, small=True)
        assert [j.wire() for j in other] != [j.wire() for j in jobs]
        assert run.run_pass(other, trace=True)["failed"] == []


def test_traced_run_reports_every_layer_metric():
    jobs = workloads.build("verify", 1, small=True)
    metrics = run.per_layer([run.run_pass(jobs, trace=False)], [run.run_pass(jobs, trace=True)])
    assert list(metrics) == tracer.metric_names()
    for group in ("laurent.mul", "laurent.addsub", "laurent.eq", "laurent.exact_div",
                  "laurent.sqrt", "qnumbers.pq_number", "qnumbers.number_sequence",
                  "qnumbers.homfly_factorization_check", "skein.knot_to_link_coeffs",
                  "skein.pq_from_link_coeffs", "skein.link_coeffs_from_pq",
                  "torus.alexander_torus", "torus.alexander_torus2", "cli.main"):
        assert metrics[f"{group}.calls"] > 0, group
    assert 0 < metrics["qnumbers.pq_number.repeat_frac"] < 1


def _in_fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    prelude = (f"import sys; sys.path[:0] = [{str(run.ROOT / 'src')!r}, {str(HERE)!r}]; "
               "import pqcalc, pqcalc.cli, tracer\n")
    return subprocess.run([sys.executable, "-c", prelude + code], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=60)


def test_tracer_covers_every_binding():
    proc = _in_fresh_interpreter("""
from pqcalc import laurent, qnumbers, skein, torus
before = {name: getattr(pqcalc, name) for name in pqcalc.__all__}
targets = [tracer._resolve(sys.modules[m], attr) for _, m, attr, _ in tracer.TARGETS]
traced = tracer.install()
for owner, name, original in targets:
    assert getattr(owner, name) is not original, name
for module in (pqcalc, laurent, qnumbers, skein, torus, pqcalc.cli):
    for name, value in vars(module).items():
        assert not any(value is original for _, _, original in targets), (module, name)
assert torus.exact_div is laurent.exact_div is pqcalc.exact_div is skein.exact_div
assert skein.sqrt_perfect_square is laurent.sqrt_perfect_square
assert qnumbers.poly_sum is laurent.poly_sum is not before["poly_sum"]
one = pqcalc.parse("q")
assert 2 * one == one + one and 1 + one == one + 1 and (one - 1) * 3 == 3 * one - 3
stats = traced.report()
assert stats["laurent.mul.calls"] == 3, stats
assert stats["laurent.mul.term_pairs"] == 1 + 2 + 1, stats
# three +, and two - that each call unary - and + inside their own span
assert stats["laurent.addsub.calls"] == 3 + 2 * 3, stats
assert stats["laurent.eq.calls"] == 3 and stats["laurent.parse.chars"] == 1
print("ok")
""")
    assert proc.stdout == "ok\n", proc.stderr


def test_tracer_refuses_a_missing_target():
    proc = _in_fresh_interpreter("""
tracer.TARGETS += (("laurent.mul", "pqcalc.laurent", "LaurentPoly.__matmul__", None),)
before = pqcalc.laurent.LaurentPoly.__mul__
try:
    tracer.install()
except tracer.MissingTargetError as exc:
    assert pqcalc.laurent.LaurentPoly.__mul__ is before
    print(exc)
""")
    assert proc.stdout == "pqcalc.laurent.LaurentPoly.__matmul__ is missing\n", proc.stderr


def test_each_pass_runs_in_its_own_interpreter():
    jobs = workloads.build("requests", 1, small=True)
    pids = {run.run_pass(jobs, trace=False)["pid"] for _ in range(3)}
    assert len(pids) == 3
    assert run.os.getpid() not in pids


def test_pass_timing_excludes_import_and_input_generation():
    # One cheap job: its timed pass is far shorter than starting an
    # interpreter and importing pqcalc, which only setup_s counts.
    job = next(j for j in workloads.build("requests", 1, small=True) if j.kind == "pq_number")
    setup_times, _refs, wrong = run.measure_setup(runs=3)
    assert wrong == 0
    passes = [run.run_pass([job], trace=False) for _ in range(3)]
    assert max(sum(j["s"] for j in p["jobs"]) for p in passes) < min(setup_times) / 10
    metrics = run.end_to_end(setup_times, passes)
    assert metrics["setup_s"] == sorted(setup_times)[1]
    assert metrics["pass_s"] < metrics["setup_s"] / 10


def test_times_are_scaled_to_the_reference_speed():
    # a host at half the reference speed: the loop takes twice its nominal
    slow = 2 * run.REF_NOMINAL_S
    passes = [{"jobs": [{"s": 0.4}, {"s": 0.2}], "peak_rss_mb": 20.0},
              {"jobs": [{"s": 0.6}, {"s": 0.1}], "peak_rss_mb": 22.0}]
    metrics = run.end_to_end([0.2, 0.8, 0.3], passes, [slow, 2 * slow, slow], [slow / 2, 1.5 * slow])
    assert math.isclose(metrics["pass_s"], (0.5 + 0.15) / 2)  # the jobs' means, halved
    assert math.isclose(metrics["job_p50_ms"], (0.25 + 0.075) / 2 * 1000)
    assert math.isclose(metrics["setup_s"], 0.15)  # median of 0.1, 0.2 and 0.15
    assert metrics["peak_rss_mb"] == 21.0


def test_reference_loop_runs_without_the_program():
    proc = subprocess.run([sys.executable, "-c", "import sys, run; run.reference_loop(2); "
                           "print(sorted(m for m in sys.modules if m.startswith('pqcalc')))"],
                          cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "[]\n", proc.stderr


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "torus",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_runs_report():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == tracer.metric_names()
    assert {m["name"] for m in bench["end_to_end"]} == set(run.UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
