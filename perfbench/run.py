#!/usr/bin/env python3
"""Build the workspace and the perfbench package, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 20 --trace 0

Builds the figure/table binaries and rbserve (release, offline) and the
perfbench package into $CARGO_TARGET_DIR (default .bench_build), then
runs `perfbench run`. Its report goes to stdout; the last line is the
JSON result. Work files go to .bench_work/ and result files to
.bench_results/. Exits non-zero, printing no result, when the sources
are missing or a build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve_mix", "paper_repro", "serve_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "rbbench", "-p", "rbserve", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed ({done.returncode}): {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "bench"),
                   os.path.join("crates", "serve")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}; run from a full checkout")

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin-dir", release,
        "--work-dir", os.path.join(ROOT, ".bench_work"),
        "--results-dir", os.path.join(ROOT, ".bench_results"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
