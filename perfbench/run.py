"""Benchmark of the `ietsaf` command line.

    python3 perfbench/run.py --workload ay-ladder --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; `src/` is used as it is, nothing
is installed.  Each workload runs in a fresh interpreter (worker.py).
With --trace 0 the result holds the end-to-end metrics; `setup_s` is the
median of SETUP_PROBES more fresh interpreters that stop where the first
job would start.  With --trace 1 it holds the per-layer metrics of a
traced run (layers.py).  `--workload all` runs the three workloads in
turn.  The last stdout line is the JSON result; the lines before it give
every metric by name and unit, fail_share and the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("ay-ladder", "poly-verdicts", "iet-files")
SETUP_PROBES = 15
DEADLINE_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "hardest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **layers.metric_units(),
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(Exception):
    pass


def spawn(mode, workload, args, deadline) -> dict:
    """Run worker.py once in a fresh interpreter; its report, plus setup_s."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--workdir", workdir] + (["--tiny"] if args.tiny else [])
    try:
        started = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["setup_done"] - started
    return report


def run_workload(workload, args, deadline):
    """(worker report, metrics, units) for one workload."""
    if args.trace:
        report = spawn("trace", workload, args, deadline)
        metrics = report["metrics"]
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - metrics["trace.untraced_wall_s"])
        return report, metrics, PER_LAYER_UNITS
    # half the set-up probes before the timed run and half after, so that
    # they meet more of the host's load phases
    def probe():
        report = spawn("setup", workload, args, deadline)
        return report["setup_s"] * report["reference_scale"]

    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    report = spawn("run", workload, args, deadline)
    probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    metrics = dict(report["metrics"], setup_s=statistics.median(probes))
    return report, metrics, END_TO_END_UNITS


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ietsaf" / "cli.py").is_file():
        print(f"error: no src/ietsaf/cli.py under {ROOT}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    result = {}
    try:
        for workload in names:
            report, metrics, units = run_workload(workload, args, deadline)
            attempted += report["attempted"]
            failed += report["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            print(f"{workload}: {report['jobs']} jobs x {report['rounds']} rounds, "
                  f"hardest job: {report['hardest']}")
            for name, unit in units.items():
                print(f"  {name} = {metrics[name]:.6g} {unit}")
                result[prefix + name] = {"value": metrics[name], "unit": unit}
            print(f"  fail_share = {report['failed'] / report['attempted']:.6g} "
                  f"({report['failed']}/{report['attempted']})")
            for message in report["failures"]:
                print(f"  FAIL {message}")
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("provenance: " + json.dumps(provenance(args.seed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
