#!/usr/bin/env python3
"""Builds the mpcc benchmark driver in Release and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The driver (perfbench/driver.cc) is compiled together with the mpcc
library from ../src into .bench_build/perfbench; incremental rebuilds are
no-ops. Build output goes to stderr, so the last stdout line is the
driver's JSON result. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_flagship", "corpus", "chaos_flaky")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "mpcc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD, "mpcc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="prove the correctness gate fires, then exit")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    for need in ("src/CMakeLists.txt", "scenarios/golden"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found; run from an mpcc checkout",
                  file=sys.stderr)
            return 2
    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [driver, f"--root={ROOT}"]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += [f"--workload={args.workload}", f"--seed={args.seed}",
                f"--seconds={args.seconds}", f"--trace={args.trace}"]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
