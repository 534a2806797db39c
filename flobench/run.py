#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
  python3 flobench/run.py --workload fleet_warm|fleet_churn|plan_sweep \\
      --seed N --seconds S --trace 0|1

Builds flobench/ (a standalone CMake package that compiles the library
from src/) in Release into .bench_build/flobench, then runs the benchmark
binary. Its report goes to standard output; the last line is the JSON
result. With --trace 1 the binary also writes the traced pass as a Chrome
trace, which this script checks with tools/validate_trace.py; a trace the
validator rejects turns the result incorrect.

Build output goes to standard error. A failed build, a missing library
source tree or a crashed run exits nonzero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "flobench")
BINARY = os.path.join(BUILD_DIR, "flobench")
WORKLOADS = ("fleet_warm", "fleet_churn", "plan_sweep")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "flobench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"flobench: build failed: {error}", file=sys.stderr)
        return 1

    out_dir = BUILD_DIR
    trace_path = os.path.join(out_dir, f"{args.workload}_trace.json")
    if args.trace and os.path.exists(trace_path):
        os.remove(trace_path)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"flobench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(run.stdout)
        print(f"flobench: no result line (exit {run.returncode})", file=sys.stderr)
        return 1

    if args.trace:
        validator = os.path.join(ROOT, "tools", "validate_trace.py")
        check = subprocess.run([sys.executable, validator, trace_path],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        lines[-1:-1] = ["trace check: " + line for line in check.stdout.splitlines()]
        if check.returncode != 0:
            result["correct"] = False
    lines[-1] = json.dumps(result)
    print("\n".join(lines))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
