#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 stackbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
stackbench/ (which compiles the library from ../src) into
.bench_build/stackbench; later calls only let CMake confirm the build is
current. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "stackbench")
WORK_DIR = os.path.join(".bench_build", "stackbench-run")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "stackbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 2
    command = [os.path.join(BUILD_DIR, "stackbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--workdir", WORK_DIR]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %ds\n" % RUN_TIMEOUT_S)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
