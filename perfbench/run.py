#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-mvm --seed 1 --seconds 20 --trace 0

Builds the shipped `geniex-serve` binary from the repository workspace
and the `perfbench` binary from this directory (both release, offline,
into $CARGO_TARGET_DIR or `.bench_build`), then runs the binary. Its
last stdout line is the JSON result. Build failures exit
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 178


def build(target_dir, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # From the repository root, so its .cargo/config.toml applies to both
    # builds alike.
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
        sys.exit(done.returncode or 1)


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir, os.path.join(ROOT, "Cargo.toml"),
          "-p", "geniex-serve", "--bin", "geniex-serve")
    build(target_dir, os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "geniex-serve")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
