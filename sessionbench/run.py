#!/usr/bin/env python3
"""Build and run the HTH session benchmark.

Usage, from the root of a source checkout:

    python3 sessionbench/run.py --workload corpus --seed 1 \
        --seconds 25 --trace 0

Builds the HTH libraries from src/ plus the sessionbench program in
sessionbench/ with CMake (Release), into $CARGO_TARGET_DIR (default
.bench_build), then runs it. Build output goes to stderr; the
program's report goes to stdout, and its last line is the JSON result.
Exits non-zero without printing a result when the sources are missing
or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "sessionbench")


def build(out_dir):
    """Configure once, then (re)build the program; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "sessionbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a handful of sessions per workload, for the "
                         "self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("sessionbench: HTH sources not found at " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    out_dir = build_dir()
    if not build(out_dir):
        print("sessionbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(out_dir, "sessionbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
