#!/usr/bin/env python3
"""Build and run the cold-path benchmark described in BENCHMARK.json.

Run from the repository root:

    python3 coldbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 coldbench/run.py --workload all [--seed N] [--seconds S]
    python3 coldbench/run.py --test

The first form builds the benchmark from source (CMake, Release) into
$CARGO_TARGET_DIR/coldbench, default .bench_build/coldbench, under the
current directory, then runs one measurement. Build output goes to stderr,
so the last line of stdout is the result JSON. The second runs every
workload in turn (seed 1 and 10 seconds unless given) and fails when any
op fails. The third builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["plan_query", "export_250k", "adam_step"]


def build(build_dir, target):
    """Configure once, then (re)build @target; False on any failure."""
    configured = build_dir / "configured.ok"
    if not configured.exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
        configured.touch()
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", target,
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (Path.cwd() / target_root / "coldbench").resolve()

    if args.test:
        if not build(build_dir, "coldbench_tests"):
            print("coldbench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([str(build_dir / "coldbench_tests")],
                              cwd=build_dir).returncode

    run_all = args.workload == "all"
    if run_all:
        args.seed = 1 if args.seed is None else args.seed
        args.seconds = 10.0 if args.seconds is None else args.seconds
        args.trace = args.trace or "0"
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in (0, 3600]")
    if not build(build_dir, "coldbench"):
        print("coldbench: build failed", file=sys.stderr)
        return 1
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    def measure(workload, capture):
        cmd = [str(build_dir / "coldbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--work-dir", str(work_dir)]
        return subprocess.run(cmd, text=True,
                              stdout=subprocess.PIPE if capture else None)

    if not run_all:
        return measure(args.workload, False).returncode
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload} (seed {args.seed})", flush=True)
        done = measure(workload, True)
        print(done.stdout, end="", flush=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or \
                not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
