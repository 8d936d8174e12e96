"""Seconds-long self-test of the benchmark harness, at tiny sizes.

    python3 perfbench/selftest.py

1. On each workload's tiny job list, the traced call count of every
   wrapped function equals cProfile's count for the same jobs, and
   together the lists call every wrapped function.
2. An output corrupted here on purpose is counted as a failed job.
3. run.py emits every metric named in BENCHMARK.json, with its unit,
   under --trace 0 and --trace 1.

Exits 0 when all of this holds and 1 otherwise.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import worker  # puts the checkout's src/ on sys.path
import layers
import workloads
from run import WORK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def profiled_counts(jobs) -> dict:
    profiler = cProfile.Profile()
    profiler.enable()
    for job in jobs:
        worker.run_job(job)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    counts = {}
    for key, _, _, function in layers.targets():
        code = function.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        counts[key] = entry[1] if entry else 0
    return counts


def traced_counts(jobs) -> dict:
    tracer = layers.Tracer()
    tracer.install()
    try:
        for job in jobs:
            worker.run_job(job, tracer)
    finally:
        tracer.uninstall()
    return tracer.calls


def corrupt(workload, jobs, outcomes) -> str:
    """Damage one output in place; the name of the damaged job."""
    for job, o in zip(jobs, outcomes):
        if workload == "ay-ladder":
            o.stdout = o.stdout.replace('"all_pass": true', '"all_pass": false')
        elif workload == "poly-verdicts" and job.name.startswith("vanishing "):
            if '"vanishes": true' in o.stdout:
                o.stdout = o.stdout.replace('"vanishes": true', '"vanishes": false')
            else:
                o.stdout = o.stdout.replace('"vanishes": false', '"vanishes": true')
        elif workload == "iet-files" and job.name.startswith("compose "):
            data = json.loads(o.out_text)
            data["perm"] = data["perm"][::-1]
            o.out_text = json.dumps(data, indent=2) + "\n"
        else:
            continue
        return job.name
    raise AssertionError(f"nothing to corrupt in {workload}")


def check_layers_and_failures(errors):
    WORK.mkdir(exist_ok=True)
    called = set()
    for workload in WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        try:
            jobs = workloads.build(workload, 7, workdir, tiny=True)
            profiled = profiled_counts(jobs)
            traced = traced_counts(jobs)
            for key in profiled:
                if traced[key] != profiled[key]:
                    errors.append(f"{workload}: {key} traced {traced[key]} "
                                  f"calls, cProfile {profiled[key]}")
            called.update(key for key, n in traced.items() if n)

            outcomes = [worker.run_job(job) for job in jobs]
            failures = worker.check_rounds(jobs, [outcomes])
            if failures:
                errors.append(f"{workload}: clean run failed: {failures}")
            name = corrupt(workload, jobs, outcomes)
            failures = worker.check_rounds(jobs, [outcomes])
            if len(failures) != 1 or not failures[0].startswith(name + ":"):
                errors.append(f"{workload}: corrupted {name!r} gave {failures}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    missed = [key for key, *_ in layers.targets() if key not in called]
    if missed:
        errors.append(f"tiny job lists never call {missed}")


def check_emitted_metrics(errors):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170)
            if proc.returncode != 0:
                errors.append(f"run.py {workload} --trace {trace}: {proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                errors.append(f"{workload} --trace {trace}: emitted {got}, "
                              f"BENCHMARK.json names {wanted}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                errors.append(f"{workload} --trace {trace}: {proc.stdout}")


def main() -> int:
    errors = []
    check_layers_and_failures(errors)
    check_emitted_metrics(errors)
    try:
        WORK.rmdir()
    except OSError:
        pass
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
