#!/usr/bin/env python3
"""Builds and runs the ECO engine benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload table2|wide|tiled --seed N \
      --seconds S --trace 0|1 [--trace-dir DIR]
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the engine libraries from
src/ plus the benchmark) in Release mode under $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. Build output goes to
standard error, so the benchmark's JSON result stays the last line of
standard output. Before a timed run (--trace 0), the workload's instances
are written as contest text files into the build tree; the timed run reads
them back as its set-up. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for --seconds and then checks its patches. The limit
# covers both, with room for a round that ends a little later than planned.
MIN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench-release"


def build(target: str) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / target


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["table2", "wide", "tiled"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-dir", help="write each traced engine run's Chrome trace here")
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's self-test")
    args = ap.parse_args()
    if args.selftest:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        ap.error("--workload is required; --seed must be >= 0 and --seconds >= 1")

    exe = str(build("perfbench"))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace_dir:
        cmd += ["--trace-dir", args.trace_dir]
    if args.trace == 0:
        instances = build_dir() / "instances" / args.workload
        subprocess.run([exe, "--workload", args.workload, "--write-instances", str(instances)],
                       stdout=sys.stderr, check=True, timeout=MIN_TIMEOUT_S)
        cmd += ["--instances", str(instances)]
    timeout = max(MIN_TIMEOUT_S, 3 * args.seconds)
    return subprocess.run(cmd, timeout=timeout).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
