"""One benchmark pass, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py < spec.json``, where the spec is
``{"trace": bool, "jobs": [{"kind", "args", "mode", "error"}, ...]}`` as
``run.py`` writes it.  The pass imports pqcalc from the checkout's ``src``,
runs the jobs in order, one at a time, and prints one JSON object: its pid,
each job's CPU time (``s``), wall time (``wall_s``) and outcome, its peak
RSS and, when traced, the per-layer counters.

A job's time is the CPU time of this process (``time.process_time``), not
the wall clock.  The jobs are single-threaded and never wait on I/O, so on
an idle host the two agree (to 0.3% over a ``verify`` pass on a 2-vCPU KVM
guest); CPU time leaves out what the hypervisor gives to other guests
(steal time), and ``run.py`` scales it to a reference speed.

Only the job calls are timed: interpreter start, import and reading the
spec happen before the first job, and hashing each output happens after
its timer stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]


def _render(pqcalc, polys, mode: str) -> str:
    return "\n".join(pqcalc.format_poly(poly, mode) for poly in polys)


def _verify(pqcalc, args, _mode):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = pqcalc.cli.main(args["argv"])
    return f"exit {code}\n{out.getvalue()}"


def _torus(pqcalc, args, mode):
    return _render(pqcalc, [pqcalc.alexander_torus(args["n"], args["l"])], mode)


def _pq_number(pqcalc, args, mode):
    return _render(pqcalc, [pqcalc.pq_number(args["family"], args["n"])], mode)


def _pq_custom(pqcalc, args, mode):
    pair = pqcalc.PQPair(pqcalc.parse(args["P"]), pqcalc.parse(args["Q"]))
    return _render(pqcalc, [pqcalc.pq_number(pair, args["n"])], mode)


def _knot_to_link(pqcalc, args, mode):
    knot = pqcalc.KnotCoefficients(pqcalc.parse(args["k1"]), pqcalc.parse(args["k2"]))
    link = pqcalc.knot_to_link_coeffs(knot)
    return _render(pqcalc, [link.l1, link.l2], mode)


def _pq_from_link(pqcalc, args, mode):
    link = pqcalc.SkeinCoefficients(pqcalc.parse(args["l1"]), pqcalc.parse(args["l2"]))
    pair = pqcalc.pq_from_link_coeffs(link)
    return _render(pqcalc, [pair.P, pair.Q], mode)


def _recurrence(pqcalc, args, mode):
    link = pqcalc.SkeinCoefficients(pqcalc.parse(args["l1"]), pqcalc.parse(args["l2"]))
    seq = pqcalc.recurrence_generate(
        link, pqcalc.parse(args["p0"]), pqcalc.parse(args["p1"]), args["count"]
    )
    return _render(pqcalc, seq, mode)


RUNNERS = {
    "verify": _verify,
    "torus": _torus,
    "pq_number": _pq_number,
    "pq_custom": _pq_custom,
    "knot_to_link": _knot_to_link,
    "pq_from_link": _pq_from_link,
    "recurrence": _recurrence,
}


def _outcome(pqcalc, job, output, exc) -> str:
    """``sha256:<digest>`` of the output, or ``raised:<name>`` when the job
    raised the typed error it expects; anything else reads as a mismatch."""
    if exc is None:
        return "sha256:" + hashlib.sha256(output.encode()).hexdigest()
    expected = job["error"]
    if expected and isinstance(exc, getattr(pqcalc, expected)):
        return f"raised:{expected}"
    return f"raised:{type(exc).__name__}: {exc}"[:300]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pqcalc
    import pqcalc.cli

    if Path(pqcalc.__file__).resolve().parent != ROOT / "src" / "pqcalc":
        print(f"error: imported pqcalc from {pqcalc.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    results = []
    for job in spec["jobs"]:
        run = RUNNERS[job["kind"]]
        if tracer is not None:
            tracer.begin_job()
        output = exc = None
        start, cpu_start = perf_counter(), process_time()
        try:
            output = run(pqcalc, job["args"], job["mode"])
        except Exception as error:  # recorded as the job's outcome
            exc = error
        cpu = process_time() - cpu_start
        wall = perf_counter() - start
        results.append({"s": cpu, "wall_s": wall, "outcome": _outcome(pqcalc, job, output, exc)})
        output = exc = None  # so two jobs' outputs never count in the peak RSS together
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({
        "pid": os.getpid(),
        "jobs": results,
        "peak_rss_mb": rss_kb / 1024,
        "trace": tracer.report() if tracer is not None else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
