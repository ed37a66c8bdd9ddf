#!/usr/bin/env python3
"""Benchmark entry point: build lfsc_bench from this checkout, run one
workload, and pass its output through.

    python3 bench/pipeline/run.py --workload paper --seed 1 --trace 0

Run it from the repository root. The first run configures and builds
into .bench_build/ (a minute or so on 4 cores); later runs only check
that the build is current. Scratch files (checkpoints, the socket,
spans) go to .bench_tmp/. The last line of standard output is the
workload's JSON result; build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_tmp"
WORKLOADS = ("paper", "city", "flash_churn", "serve_wire")


def build():
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release", "-DLFSC_PIPELINE_TESTS=OFF"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "lfsc_bench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "lfsc_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        bench = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    command = [bench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", WORK_DIR]
    if args.trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        command += ["--trace",
                    os.path.join(WORK_DIR, f"spans-{args.workload}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
