"""One workload in a fresh interpreter: set up, run the jobs, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode run|trace|setup --workdir DIR [--tiny]

Load is a closed loop: one job at a time, on one thread.  A job is one
call of `ietsaf.cli.main(argv)` in this process, with stdout and stderr
captured; the timer covers that call alone.  Between two jobs the worker
times a fixed reference computation (`reference`), and each job's time
is reported relative to the reference runs on either side of it.  The
job list is run in rounds until the next round would overrun --seconds
(at least one).  All outputs are checked after the timed rounds: the
first round against the oracles, later rounds for byte-identical output.

Modes: `run` reports the end-to-end metrics; `trace` alternates
untraced and traced rounds and reports the per-layer metrics; `setup`
stops where the first job would start.
The last stdout line is a JSON report for run.py, with `setup_done`
read from time.monotonic() and, in `setup` mode, `reference_scale`, the
factor that turns this process's seconds into reference seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ietsaf import cli  # noqa: E402

import exact  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

MAX_REPORTED_FAILURES = 5

# x^7 - x^6 - ... - 1 has one root in (1, 2); REFERENCE_COORDS is a field
# element in the style of the library's, evaluated at that root.
REFERENCE_POLY = [-1] * 7 + [1]
REFERENCE_COORDS = [Fraction(k, 7) for k in range(-3, 4)]
# The reference's fastest time on the host described in NOTES.md.  Job
# times are reported as multiples of the reference, times this constant,
# so that they read in seconds on that host when it is quiet.
REFERENCE_SECONDS = 0.0015
SETUP_REFERENCE_RUNS = 15


def reference() -> float:
    """Time of one run of a fixed exact computation like the library's:
    Sturm isolation, bisection and interval Horner over Fraction.

    It uses exact.py only, so no change to the library changes it.  On a
    shared host, neighbours slow this process down by up to 2.5x in
    phases lasting from seconds to minutes; the reference, timed next to
    each job, slows down with it, and the ratio of the two does not.
    """
    start = time.perf_counter()
    (lo, hi), = exact.isolate_roots(REFERENCE_POLY, 1, 2)
    lo, hi = exact.narrow(REFERENCE_POLY, lo, hi, Fraction(1, 2**24))
    for _ in range(4):
        exact.interval_value(REFERENCE_COORDS, lo, hi)
    return time.perf_counter() - start


def run_job(job, tracer=None) -> Outcome:
    if job.out:
        Path(job.out).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.begin_job()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails this job's check, not the benchmark
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    if tracer:
        tracer.end_job()
    out_text = None
    if job.out and os.path.exists(job.out):
        out_text = Path(job.out).read_text(encoding="utf-8")
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, out_text)


def run_round(jobs, tracer=None) -> list:
    """Outcomes of one run of the job list, each with the median time of
    the two reference runs before the job and the two after it.

    A single reference run can be caught by an interrupt and take twice
    as long; the median of four is not moved by one such run.
    """
    outcomes, refs = [], [reference()]
    for job in jobs:
        outcomes.append(run_job(job, tracer))
        refs.append(reference())
    for j, o in enumerate(outcomes):
        o.reference = statistics.median(refs[max(0, j - 1):j + 3])
    return outcomes


def run_rounds(jobs, seconds, tracer=None):
    """(untraced rounds, traced rounds) of the whole job list, for as long
    as the next one fits in `seconds`.

    With a tracer, untraced and traced rounds alternate, so that both
    meet the same load on the host; without one, no round is traced.
    """
    rounds, traced, start = [], [], time.monotonic()
    while True:
        rounds.append(run_round(jobs))
        if tracer:
            tracer.install()
            try:
                traced.append(run_round(jobs, tracer))
            finally:
                tracer.uninstall()
        spent = time.monotonic() - start
        if spent * (1 + 1 / len(rounds)) > seconds:
            return rounds, traced


def check_rounds(jobs, rounds):
    """Failure messages, one per failed job run, over all rounds."""
    failures = []
    first = rounds[0]
    for j, (job, o) in enumerate(zip(jobs, first)):
        try:
            job.check(o)
            ok = True
        except Exception as exc:  # any check error counts against the job
            ok = False
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        for later in rounds[1:]:
            o2 = later[j]
            same = (o2.code, o2.stdout, o2.out_text) == (o.code, o.stdout, o.out_text)
            if not same:
                failures.append(f"{job.name}: output differs from round 1")
            elif not ok:
                failures.append(f"{job.name}: failed again")
    return failures


def cost(rounds, j) -> float:
    """Job j's time in reference seconds: the median over the rounds of
    its time divided by its reference time, times REFERENCE_SECONDS."""
    return REFERENCE_SECONDS * statistics.median(
        r[j].seconds / r[j].reference for r in rounds)


def wall_seconds(rounds) -> float:
    """Sum over jobs of each job's cost."""
    return sum(cost(rounds, j) for j in range(len(rounds[0])))


def end_to_end(jobs, rounds) -> dict:
    hardest = next(j for j, job in enumerate(jobs) if job.hardest)
    return {
        "wall_s": wall_seconds(rounds),
        "job_p50_ms": 1000 * statistics.median(cost(rounds, j) for j in range(len(jobs))),
        "hardest_job_s": cost(rounds, hardest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed, args.workdir, args.tiny)
    report = {"setup_done": time.monotonic(), "jobs": len(jobs),
              "hardest": next(job.name for job in jobs if job.hardest)}
    if args.mode == "setup":
        # set-up time is reported in reference seconds too, like job times
        report["reference_scale"] = REFERENCE_SECONDS / statistics.median(
            reference() for _ in range(SETUP_REFERENCE_RUNS))
        print(json.dumps(report))
        return 0
    if args.mode == "run":
        rounds, _ = run_rounds(jobs, args.seconds)
        report["metrics"] = end_to_end(jobs, rounds)
    else:
        tracer = layers.Tracer()
        untraced, traced = run_rounds(jobs, args.seconds, tracer)
        report["metrics"] = tracer.metrics(len(traced))
        report["metrics"]["trace.wall_s"] = wall_seconds(traced)
        report["metrics"]["trace.untraced_wall_s"] = wall_seconds(untraced)
        rounds = untraced + traced
    failures = check_rounds(jobs, rounds)
    report.update(rounds=len(rounds), attempted=len(jobs) * len(rounds),
                  failed=len(failures), failures=failures[:MAX_REPORTED_FAILURES])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
