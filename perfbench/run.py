"""pqcalc benchmark: seeded workloads, end-to-end metrics and a traced run.

Usage:
    python3 perfbench/run.py --workload {verify,torus,requests} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a checkout; it imports pqcalc from ``src``.

Load is one closed-loop caller: one process, no threads, the next job
starts when the last one returns.  A pass runs the workload's fixed job
list once, in a fresh interpreter (``worker.py``), as a CLI user starts a
new process for every call; so no cache outlives a pass.  Passes repeat
until ``--seconds`` have gone by.  Every job's output is checked against a
reference computed without pqcalc (``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  A job's time is its mean
CPU time over the run's passes (see ``mean_times``), scaled to the
reference speed (see ``speed_scale``).

- ``setup_s``: median wall time of ``python -m pqcalc family-params
  --family alexander-fermionic`` in a fresh interpreter, output checked,
  scaled to the reference speed.  Interpreter start, import and argparse:
  what every shell call pays.
- ``pass_s``: one pass over the job list, the sum of its jobs' times.
- ``job_p50_ms`` / ``job_p90_ms``: percentiles of the jobs' times over
  the job list (on ``verify``, whose list is one job, both are its time).
- ``peak_rss_mb``: median over passes of the pass process's peak RSS.

The reference speed.  On the shared 2-vCPU host this benchmark was built
on, the speed of a vCPU flips between two levels about 1.7x apart every
few hundred milliseconds, and the share of time at the slow level drifts
from a third to four fifths between runs a few minutes apart.  Neither the
fastest nor the median time of a job is steady under that.  So the
benchmark pins itself and its children to one CPU, times a fixed
pure-Python loop (``reference_loop``) in its own process, which never
imports pqcalc, before every pass and after the last, and scales the
mean time of each job by ``REF_NOMINAL_S`` over the loop's mean time in
the run.  A set-up call is scaled by the loop's runs just before and just
after it.  A time is thus reported as it would read on a host where that
loop takes ``REF_NOMINAL_S``, about its time on an uncontended core of the
build host.  The loop's own times and the unscaled metrics are printed on
the lines before the result.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py``: calls and work counts of one pass
(identical in every pass), the median self time of each layer, and
``trace.overhead_frac``, traced over untraced ``pass_s`` minus one.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any job fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 15
SETUP_ARGV = ["-m", "pqcalc", "family-params", "--family", "alexander-fermionic"]
SETUP_OUTPUT = "P = q^(1/2)\nQ = -q^(-1/2)\n"
PASS_TIMEOUT_S = 150
REF_REPS = 8
REF_NOMINAL_S = 0.02
_REF_POLY = {(i, i % 3): i + 1 for i in range(40)}

UNITS = {"setup_s": "s", "pass_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
         "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run or measure; it prints no result."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(runs: int = SETUP_RUNS) -> tuple[list[float], list[float], int]:
    """Wall times of the cheapest real CLI call, the mean of the reference
    loop's runs just before and just after each, and how many calls printed
    the wrong answer."""
    times, refs, wrong = [], [], 0
    env = _env()
    before = reference_loop(1)[0]
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        wrong += proc.returncode != 0 or proc.stdout != SETUP_OUTPUT
        after = reference_loop(1)[0]
        refs.append((before + after) / 2)
        before = after
    return times, refs, wrong


def reference_loop(reps: int = REF_REPS) -> list[float]:
    """CPU times of ``reps`` runs of a fixed loop of small dict-polynomial
    products, the kind of work pqcalc's kernel does, with the benchmark's
    own arithmetic.  The collector is off, so the runner's heap does not
    weigh on it."""
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            start = time.process_time()
            for _ in range(25):
                acc: dict = {}
                for k in range(12):
                    acc = workloads.padd(acc, workloads.pmul(_REF_POLY, {(k, 0): 1, (k + 1, 1): -1}))
            times.append(time.process_time() - start)
    finally:
        gc.enable()
    return times


def speed_scale(ref_times: list[float]) -> float:
    """The factor that turns a mean time measured in this run into one at
    the reference speed: the reference loop's nominal over its mean time."""
    return REF_NOMINAL_S / statistics.fmean(ref_times)


def run_pass(jobs: list[workloads.Job], trace: bool) -> dict:
    """One pass in a fresh interpreter; returns what ``worker.py`` prints,
    with ``failed`` listing the jobs whose outcome is not the expected one."""
    spec = json.dumps({"trace": trace, "jobs": [job.wire() for job in jobs]})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=spec,
                          cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["failed"] = [
        (index, job.kind, job.args, got["outcome"])
        for index, (job, got) in enumerate(zip(jobs, result["jobs"], strict=True))
        if got["outcome"] != job.expect
    ]
    return result


def mean_times(passes: list[dict]) -> list[float]:
    """Each job's mean time over the passes.  Interleaved with the reference
    loop on one CPU, the mean sees the same mix of fast and slow periods as
    the loop's mean; the fastest and the median time depend on that mix."""
    return [statistics.fmean(times) for times in zip(*([j["s"] for j in p["jobs"]] for p in passes))]


def _decile(values: list[float], k: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(setup_times: list[float], passes: list[dict],
               setup_refs: list[float] | None = None, ref_times: list[float] | None = None) -> dict:
    """The end-to-end metrics; scaled to the reference speed when the
    reference loop's times are given: each set-up call by the loop's runs
    around it (``setup_refs``), the jobs' mean times by ``speed_scale`` of
    all the runs between passes (``ref_times``)."""
    setup = setup_times
    if setup_refs is not None:
        setup = [t * REF_NOMINAL_S / r for t, r in zip(setup_times, setup_refs, strict=True)]
    scale = speed_scale(ref_times) if ref_times is not None else 1.0
    jobs = [t * scale for t in mean_times(passes)]
    return {
        "setup_s": statistics.median(setup),
        "pass_s": sum(jobs),
        "job_p50_ms": _decile(jobs, 5) * 1000,
        "job_p90_ms": _decile(jobs, 9) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    counts = [{k: v for k, v in p["trace"].items() if not k.endswith("self_s")}
              for p in traced]
    if any(c != counts[0] for c in counts):
        raise BenchError("traced passes over one job list reported different counts")
    metrics = dict(traced[0]["trace"])
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(p["trace"][name] for p in traced)
    metrics["trace.overhead_frac"] = sum(mean_times(traced)) / sum(mean_times(untraced)) - 1
    return {name: metrics[name] for name in tracer.metric_names()}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith("_frac") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="pqcalc benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pqcalc" / "__init__.py").is_file():
        print(f"error: no pqcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_times, setup_refs, setup_wrong = ([], [], 0) if args.trace else measure_setup()
    untraced, traced, ref_times = [], [], []
    deadline = time.monotonic() + args.seconds
    try:
        while True:
            if not args.trace:
                ref_times += reference_loop()
            untraced.append(run_pass(jobs, trace=False))
            if args.trace:
                traced.append(run_pass(jobs, trace=True))
            if time.monotonic() >= deadline:
                break
        if args.trace:
            metrics = per_layer(untraced, traced)
        else:
            ref_times += reference_loop()
            metrics = end_to_end(setup_times, untraced, setup_refs, ref_times)
            unscaled = end_to_end(setup_times, untraced)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = untraced + traced
    attempted = sum(len(p["jobs"]) for p in passes) + len(setup_times)
    failed = sum(len(p["failed"]) for p in passes) + setup_wrong
    for p in passes:
        for index, kind, job_args, outcome in p["failed"][:5]:
            print(f"FAIL job {index} {kind} {job_args}: {outcome}", file=sys.stderr)
    if setup_wrong:
        print(f"FAIL setup: {setup_wrong} CLI calls printed a wrong answer", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} jobs, {len(setup_times)} setup runs; "
          f"job times are means over {len(untraced)} passes, percentiles over {len(jobs)} jobs")
    print(f"  error_rate  {failed / attempted:.6g}  ({failed} of {attempted} failed)")
    if not args.trace:
        wall = statistics.fmean(sum(j["wall_s"] for j in p["jobs"]) for p in untraced)
        print(f"  reference loop: {len(ref_times)} runs, fastest {min(ref_times):.6g} s, "
              f"median {statistics.median(ref_times):.6g} s, mean {statistics.fmean(ref_times):.6g} s; "
              f"scale {speed_scale(ref_times):.6g}")
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items())
              + f"; mean wall-clock pass {wall:.6g} s")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:44s} {shown} {_unit(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
