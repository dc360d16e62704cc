#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper|served|isolated \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
library from src/) as a Release build under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally.
Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The exit code is the
benchmark's own, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            return False
    return True


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench-build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--self-test"]:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "perfbench")] + argv
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
