#!/usr/bin/env python3
"""Builds and runs the host buffer-manager benchmark.

    python3 perfbench/run.py --workload hot-t2 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
rebuild incrementally. Build output goes to stderr. The benchmark's own
output goes to stdout, and its last line is the JSON result. A traced run
(--trace 1) also writes its spans to .bench_out/. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "bpw_perfbench")
WORKLOADS = ("hot-t1", "hot-t2", "evict-rw")

# The benchmark itself exits well inside the 180 s a run may take; this
# bound only stops a wedged run.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bpw_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        fail(f"benchmark exited with status {result.returncode}")
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no JSON result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
