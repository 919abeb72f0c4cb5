#!/usr/bin/env python3
"""Build the benchmark crate and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <mark-steady|lint-unique|projects> \
        --seed <n> --seconds <s> --trace <0|1>

The crate under perfbench/ is built in release mode against the
repository's own crates (into $CARGO_TARGET_DIR, default .bench_build),
then run with the same arguments plus the host facts it reports (rustc
version, git revision). The benchmark's standard output is passed
through unchanged; its last line is the result object. The exit code is
the benchmark's, or non-zero if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def host_fact(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    extra = [
        "--out", os.path.join(target, "perfbench"),
        "--rustc", host_fact(["rustc", "--version"]),
        "--git-rev", host_fact(["git", "-C", HERE, "rev-parse", "HEAD"]),
    ]
    try:
        return subprocess.run([exe] + sys.argv[1:] + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
