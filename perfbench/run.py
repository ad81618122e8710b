#!/usr/bin/env python3
"""Build the benchmark binary from this checkout, then run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built (incrementally) into
.bench_build/perfbench; per-run result files land in .bench_build/out.
Build output goes to stderr so that the last line of stdout is the
benchmark's JSON result. Exits non-zero without a result if the build
fails (for example when the library sources are absent).
"""
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # Replace this process so the benchmark is a single process whose
    # exit code and stdout are the caller's.
    os.execv(BINARY, [BINARY, "--out", OUT] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
