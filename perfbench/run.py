#!/usr/bin/env python3
"""Build and run the confederation benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use; its unit and
equivalence tests run before every measurement (--selftest also runs the
slow ones). The last line of output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what, timeout):
    """Runs cmd with its output on stderr; stops the run if it fails."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    if done.returncode != 0:
        fail(f"{what} failed with exit code {done.returncode}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "cdss.h")):
        fail(f"no orchestra sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configure", 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], "build", 840)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests only")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    tests = [os.path.join(build_dir, "perfbench_test"), "--gtest_brief=1"]
    if not args.selftest:
        tests.append("--gtest_filter=-Slow*")
    run_quiet(tests, "perfbench_test", 120)
    if args.selftest:
        return 0

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run timed out after {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
