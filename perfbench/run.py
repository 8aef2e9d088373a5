#!/usr/bin/env python3
"""End-to-end benchmark of the LTE serving stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The script builds the library from ../src together with the load generator
(CMake, Release) into .bench_build/, runs one workload and passes the
generator's output through. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics from a traced run and writes its spans, one JSON object per line, to
.bench_build/traces/<workload>-<seed>.jsonl; it first runs the same seed
untraced, so that bench.trace_overhead is the traced run's timed-loop wall
time over the untraced one's, minus one.

Without the library sources next to it the script fails (exit code 2) before
building or printing a result.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(BUILD_DIR, "lte_perfbench")
WORKLOADS = ("retrieve", "churn")
RUN_DEADLINE_S = 170.0
LOOP_LINE = re.compile(r"^timed loop: (\d+) requests, ([0-9.eE+-]+) s$")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run_generator(args, trace, timeout):
    """Runs the generator once; returns (json result, loop seconds) or None."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--work-dir", WORK_DIR, "--trace-dir", TRACE_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: generator timed out")
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        log("perfbench: generator exited with code %d" % proc.returncode)
        return None
    loop_s = None
    for line in lines:
        match = LOOP_LINE.match(line)
        if match:
            loop_s = float(match.group(2))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last line is not JSON: %r" % lines[-1])
        return None
    return result, loop_s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return 2
    if args.selftest:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                              stdout=sys.stderr, cwd=BUILD_DIR).returncode
    if args.workload is None or args.seconds <= 0:
        parser.error("--workload and a positive --seconds are required")
    if not build("lte_perfbench"):
        return 1

    start = time.monotonic()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    try:
        untraced = None
        if args.trace == 1:
            untraced = run_generator(args, 0, RUN_DEADLINE_S / 2)
            if untraced is None or untraced[1] is None:
                return 1
        remaining = RUN_DEADLINE_S - (time.monotonic() - start)
        outcome = run_generator(args, args.trace, max(1.0, remaining))
        if outcome is None:
            return 1
        result, loop_s = outcome
        if untraced is not None:
            if loop_s is None:
                return 1
            overhead = loop_s / untraced[1] - 1.0
            result["metrics"]["bench.trace_overhead"] = {
                "value": overhead, "unit": "ratio"}
            result["correct"] = result["correct"] and untraced[0]["correct"]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
