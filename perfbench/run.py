#!/usr/bin/env python3
"""Build and run one workload of the tsda benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload predict-closed --seed 7 --seconds 10 --trace 0

Builds, in release mode and offline, the served binaries (tsda_serve,
tsda_router) and the benchmark binary into $CARGO_TARGET_DIR (default
.bench_build), then runs the benchmark with the given arguments. Build
output goes to stderr; the benchmark's report and its final JSON line go
to stdout. The exit code is the benchmark's, or 1 when a build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # os.path.join keeps an absolute CARGO_TARGET_DIR as it is.
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--manifest-path"]
    builds = [
        cargo + [os.path.join(root, "Cargo.toml"), "-p", "tsda-serve",
                 "--bin", "tsda_serve", "--bin", "tsda_router"],
        cargo + [os.path.join(root, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bin_dir = os.path.join(target, "release")
    cmd = [os.path.join(bin_dir, "perfbench"), *sys.argv[1:],
           "--bin-dir", bin_dir, "--work-dir", os.path.join(target, "perfbench-work")]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
