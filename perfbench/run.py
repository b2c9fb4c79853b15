#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload build|serve|update --seed N \
        --seconds S --trace 0|1

The library and the harness are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild only what changed. Build output goes to stderr, so the last stdout
line is the harness's result JSON. Edge lists and snapshots live in a
temporary directory under the build directory that is removed on exit.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build", "serve", "update")


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    src = os.path.join(ROOT, "perfbench")
    out = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    trace_out = os.path.join(
        build_dir, f"trace-{args.workload}-{args.seed}.json")
    with tempfile.TemporaryDirectory(prefix="run-", dir=build_dir) as tmp:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--tmp", tmp, "--trace-out", trace_out]
        try:
            return subprocess.run(cmd, timeout=175).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded 175 s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
