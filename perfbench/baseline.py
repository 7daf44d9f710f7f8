"""Measure the benchmark's spread and write its baseline.

Usage (from the root of a git checkout):
    python3 perfbench/baseline.py [--seeds 10] [--write perfbench/baseline.json]

Runs ``run.py`` once per seed (seeds 1..N) on each workload with the
``run_seconds`` of ``BENCHMARK.json``, then twice traced on seed 1.  It
prints, for each end-to-end metric, the median, the quartiles and their
distance as a share of the median beside the metric's bound, and checks
that the two traced runs report the same counts.  With ``--write`` it also
records the context (git sha, dirty flag, Python, nproc, seeds), the job
sizes and output term counts, each workload's rationale and predictions,
and the per-layer values, so that a later change has a parent to compare
against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which per-layer metric should move which end-to-end metric, on which
# workload; on the others a change to that layer should leave it unchanged.
PREDICTIONS = {
    "laurent.mul": "pass_s on verify; about 0 on torus",
    "laurent.addsub": "pass_s on verify",
    "laurent.eq": "pass_s on verify",
    "laurent.exact_div": "pass_s, job_p50_ms and job_p90_ms on torus; small on verify",
    "laurent.sqrt": "job_p50_ms on requests",
    "laurent.parse": "job_p50_ms on requests",
    "laurent.render": "job_p50_ms on requests; pass_s on torus",
    "qnumbers.pq_number": "pass_s and peak_rss_mb on verify",
    "qnumbers.number_sequence": "pass_s on verify",
    "qnumbers.homfly_factorization_check": "pass_s on verify",
    "skein.*": "job_p50_ms on requests",
    "torus.alexander_torus": "pass_s on torus; the delta-identity share of verify",
    "torus.alexander_torus2": "the delta-identity share of verify",
    "cli.main": "pass_s on verify; setup_s",
    "trace.overhead_frac": "none; it keeps the cost of instrumentation visible",
}

CONTROLS = {
    "verify": "the workload of ROADMAP item 2 (verify recomputation); "
              "the no-change control for the exact_div heap and for item 5's off-cost",
    "torus": "the workload of the exact_div heap and the division-free torus form "
             "(items 2 and 4); the no-change control for the verify fix",
    "requests": "the control for items 2 and 4; where item 5's --stats off-cost "
                "would show, through per-call overhead",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def job_sizes(workload: str, seed: int) -> dict:
    jobs = workloads.build(workload, seed)
    if workload == "torus":
        return {"jobs": [{"n": j.args["n"], "l": j.args["l"], "mode": j.mode,
                          "out_terms": j.out_terms} for j in jobs]}
    by_kind: dict = {}
    for job in jobs:
        key = job.kind if job.error is None else f"{job.kind} -> {job.error}"
        entry = by_kind.setdefault(key, {"jobs": 0, "size_max": 0, "out_terms": 0,
                                         "out_terms_max": 0, "modes": Counter()})
        entry["jobs"] += 1
        entry["size_max"] = max(entry["size_max"], job.size)
        entry["out_terms"] += job.out_terms
        entry["out_terms_max"] = max(entry["out_terms_max"], job.out_terms)
        entry["modes"][job.mode] += 1
    return {"jobs": len(jobs), "by_kind": by_kind}


def context(seeds: list[int]) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    return {
        "git_sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": seeds,
        "trace_seed": seeds[0],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--write", type=Path, help="write the baseline JSON here")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seeds = list(range(1, args.seeds + 1))
    steady = True
    out = {"context": context(seeds), "run_seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for name, bound in bounds.items():
            stats = summary([r["metrics"][name]["value"] for r in runs])
            metrics[name] = {**stats, "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if stats["spread"] < bound / 3 else "  <-- not below a third of the bound"
            steady &= bool(not flag) or name == "setup_s"
            print(f"{workload:9s} {name:12s} median {stats['median']:.6g}  "
                  f"IQR/median {stats['spread']:.4f}  bound {bound}{flag}  "
                  + " ".join(f"{v:.4g}" for v in stats["values"]), flush=True)
        entry = {"why": why[workload], "controls": CONTROLS[workload],
                 "sizes": job_sizes(workload, seeds[0]), "end_to_end": metrics}
        traced = [run(workload, seeds[0], seconds, 1) for _ in range(2)]
        values = [{k: m["value"] for k, m in t["metrics"].items()} for t in traced]
        counts = [{k: v for k, v in vals.items() if not k.endswith(("self_s", "overhead_frac"))}
                  for vals in values]
        same = counts[0] == counts[1]
        print(f"{workload:9s} traced counts identical across two runs: {same}", flush=True)
        steady &= same
        entry["per_layer"] = values
        out["workloads"][workload] = entry
    out["predictions"] = PREDICTIONS
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
