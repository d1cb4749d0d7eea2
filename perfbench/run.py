#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); the build log
goes to stderr, so the last stdout line is the benchmark's JSON result.  Any
build failure or a run longer than RUN_TIMEOUT exits non-zero without a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT = 175


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # One malloc arena: with per-thread arenas the serve workload's peak RSS
    # depended on which thread allocated first (16-21 MiB over five seeds).
    env["MALLOC_ARENA_MAX"] = "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "fall-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT)
        return run.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
