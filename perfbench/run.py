#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

Builds perfbench_harness (the simulator library plus the harness, see
CMakeLists.txt) under the build directory, runs one workload for a fixed
stretch of host time, checks the harness's correctness verdict and prints
one JSON result object as the last line of standard output.

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (the same runs with the sampling profiler on). Run it from
the repository root. The build directory is $CARGO_TARGET_DIR when set,
else .bench_build; everything the benchmark writes goes there.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.spec"))
# Seconds a run may take beyond --seconds: set-up, warm-up and the last
# repetition, which always finishes.
RUN_SLACK_S = 120
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Runs cmd with output to the log file; returns its exit code. On
    timeout the whole process group (make, compilers) is killed."""
    proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def build(build_dir):
    """Configures (once) and incrementally builds the harness."""
    cmake_dir = build_dir / "perfbench"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = cmake_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "perfbench_harness", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")
    return cmake_dir / "perfbench_harness"


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    try:
        declared = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 60 or args.seed < 0:
        fail("--seconds must be in (0, 60] and --seed non-negative")

    expected = expected_metrics(args.trace)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    harness = build(build_dir)

    cmd = [str(harness), "--spec", str(HERE / "workloads" /
                                       f"{args.workload}.spec"),
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + RUN_SLACK_S, check=False)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish in time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the harness exited with code {proc.returncode}")
    report = json.loads(lines[-1])

    correct = bool(report["correct"])
    for error in report["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    metrics = {}
    for name, unit in expected.items():
        metric = report["metrics"].get(name)
        if metric is None or metric["unit"] != unit:
            fail(f"the harness did not report {name} in {unit}")
        value = metric["value"]
        # End-to-end metrics are never 0; a layer may take no time.
        if not math.isfinite(value) or value < 0 or (not args.trace and
                                                      value == 0):
            correct = False
            print(f"perfbench: {name} = {value} is not a measurement",
                  file=sys.stderr)
        metrics[name] = {"value": value, "unit": unit}
    print(f"perfbench: {args.workload}: {report['reps']} repetitions, "
          f"{report['ticks']} control ticks", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
