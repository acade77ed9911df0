#!/usr/bin/env python3
"""Builds the perfbench program from source, then runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every argument is passed on to the perfbench binary. The build goes to the
directory named by CARGO_TARGET_DIR, else `.bench_build`; build output goes
to stderr so the last line of stdout stays the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "perfbench")
    daemon = os.path.join(build_dir, "emmapcd")
    done = subprocess.run([binary, "--daemon-binary", daemon] + sys.argv[1:], timeout=170)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
