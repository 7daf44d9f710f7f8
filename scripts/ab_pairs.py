#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: a parent commit and a change.

Usage (from anywhere):
    python3 scripts/ab_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

Pair i runs the benchmark, ``perfbench/run.py --workload W --seed K+i
--seconds S --trace 0``, once in each checkout, each side with its own
files and the same seed.  The side that runs first alternates: the parent
in even pairs, the change in odd ones.  Every run has
``PYTHONDONTWRITEBYTECODE=1``, and a checkout with a ``__pycache__`` under
``src`` or ``perfbench`` is refused, so both sides compile pqcalc from
source, as a fresh checkout does.  So is a pair of checkouts whose
``BENCHMARK.json`` or ``perfbench`` files differ: both sides must be
measured by the same benchmark.

The metrics are the ``end_to_end`` entries of ``BENCHMARK.json``, each
with its ``better`` direction and its ``bound``.  Every run is printed as
it ends.  Then each side's failed operations out of those it attempted,
summed over its runs, and for each metric: the medians of both sides, the
median of the per-pair change/parent ratios, the pairs the change won
(ties count for neither), the distance between the parent's quartiles (its
IQR), whether a gain may be claimed, and a no-regression verdict.

A gain needs at least ten pairs, wins in at least nine tenths of them, a
difference between the medians, in the better direction, larger than the
parent's IQR, and no larger a share of failed operations on the change's
side than on the parent's.  The verdict is ``worse than bound`` when the
change's median is worse than the parent's by more than ``bound`` times
the parent's median, and ``within bound`` otherwise; but it is
``unresolved`` when the parent's IQR is wider than ``bound`` times its
median and not every change run beats every parent run, since a spread
that wide cannot show a change of the bound's size.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def failures(pairs: list[tuple[dict, dict]]) -> dict[str, tuple[int, int]]:
    """Each side's failed and attempted operations, summed over ``pairs``
    of ``(parent, change)`` runs that carry ``failed`` and ``attempted``."""
    return {side: (sum(pair[i]["failed"] for pair in pairs),
                   sum(pair[i]["attempted"] for pair in pairs))
            for i, side in enumerate(("parent", "change"))}


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric of ``end_to_end`` (``BENCHMARK.json``'s entries)
    from ``pairs`` of ``(parent, change)`` runs: metric values by name,
    with the run's ``failed`` and ``attempted`` operations."""
    (parent_failed, parent_attempted), (change_failed, change_attempted) = failures(pairs).values()
    # failed shares compared without division: a side may attempt nothing
    fails_more = change_failed * parent_attempted > parent_failed * change_attempted
    rows = []
    for metric in end_to_end:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4)
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        gain = (parent_median - change_median) if lower else (change_median - parent_median)
        beats_all = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        if q3 - q1 > bound * abs(parent_median) and not beats_all:
            verdict = "unresolved"
        elif -gain > bound * abs(parent_median):
            verdict = "worse than bound"
        else:
            verdict = "within bound"
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "parent_median": parent_median,
            "change_median": change_median,
            "ratio": statistics.median(c / p for p, c in zip(parent, change)),
            "wins": wins,
            "pairs": len(pairs),
            "parent_iqr": q3 - q1,
            "gain": (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                     and gain > q3 - q1 and not fails_more),
            "bound": bound,
            "verdict": verdict,
        })
    return rows


def _refuse(checkout: Path) -> str | None:
    if not (checkout / "perfbench" / "run.py").is_file():
        return f"{checkout} has no perfbench/run.py"
    for tree in ("src", "perfbench"):
        cache = next((checkout / tree).rglob("__pycache__"), None)
        if cache is not None:
            return f"{cache} exists; remove it, so that both sides compile from source"
    return None


def _benchmark_files(checkout: Path) -> dict[str, bytes]:
    files = [checkout / "BENCHMARK.json", *sorted((checkout / "perfbench").glob("*.py"))]
    return {path.relative_to(checkout).as_posix(): path.read_bytes() for path in files}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        problem = _refuse(checkout)
        if problem:
            ap.error(problem)
    if _benchmark_files(sides["parent"]) != _benchmark_files(sides["change"]):
        ap.error("the checkouts' BENCHMARK.json or perfbench files differ")
    end_to_end = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            result = _run(sides[side], args.workload, seed, args.seconds)
            results[side] = {name: m["value"] for name, m in result["metrics"].items()}
            results[side].update(failed=result["failed"], attempted=result["attempted"])
            shown = ", ".join(f"{m['name']} {results[side][m['name']]:.6g}" for m in end_to_end)
            print(f"pair {i + 1} seed {seed} {side}{' (first)' if side == order[0] else ''}: "
                  f"{shown}; failed {result['failed']} of {result['attempted']}", flush=True)
        pairs.append((results["parent"], results["change"]))

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs")
    for side, (failed, attempted) in failures(pairs).items():
        print(f"  {side:6s} failed {failed} of {attempted} operations")
    for row in summarize(pairs, end_to_end):
        print(f"  {row['metric']:12s} parent {row['parent_median']:.6g} -> change "
              f"{row['change_median']:.6g} {row['unit']}, ratio {row['ratio']:.4f}, "
              f"wins {row['wins']}/{row['pairs']}, parent IQR {row['parent_iqr']:.6g}, "
              f"gain rule {'holds' if row['gain'] else 'does not hold'}, "
              f"bound {row['bound']:g}: {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
