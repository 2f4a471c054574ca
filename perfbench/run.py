#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run one workload.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset. Build output goes to
standard error; the binary's report, ending with one JSON line, goes to
standard output. The exit code is the binary's: 0 only when every
correctness check passed. A failed build exits with code 2 and prints no
result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["compile-scale", "paper-sweep", "replay-storm", "search-frontier"]


def build():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            sys.exit(2)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    sys.stdout.flush()
    # The plan cache's optional disk spill would write outside the
    # checkout and turn cold compiles into disk hits.
    env = {k: v for k, v in os.environ.items() if k != "MSCCLANG_PLAN_CACHE_DIR"}
    result = subprocess.run([
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ], env=env)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
