#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload eco|full|serve --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The package in this directory is built
with cargo (offline, into CARGO_TARGET_DIR, default `.bench_build`), then
its `perfbench` binary runs the workload with the `gpasta` binary built
beside it as the `serve` daemon. Build output goes to stderr; the last
line of stdout is the result object. Exits non-zero without a result when
the build or the workload fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--gpasta", os.path.join(release, "gpasta"),
               "--workdir", os.path.abspath(".bench_work")]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
