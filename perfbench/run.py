#!/usr/bin/env python3
"""Build and run one workload of the layered TQ benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload rt_exp1 --seed 1 --seconds 30 --trace 0

--workload all runs every workload of BENCHMARK.json in turn and exits
non-zero if any run fails.

Configures perfbench/ (which builds the repository's libraries from
source, Release, telemetry on as shipped) into $CARGO_TARGET_DIR or
.bench_build/, builds the benchmark binary, and runs it. Build output
goes to stderr; the binary's output goes to stdout and its last line is the
result JSON. Extra arguments (for example --inject-wrong-result) are
passed through to the binary.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "Release"


def git(*args):
    # Look for a repository at the checkout root only, never above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
        os.path.dirname(BENCH_DIR)))
    try:
        out = subprocess.run(["git", *args], cwd=BENCH_DIR, check=True,
                             capture_output=True, text=True, env=env).stdout
        return out.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-G",
                      "Ninja", "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "tq_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tq_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = ap.parse_known_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    sha = git("rev-parse", "HEAD") or "unknown"
    status = git("status", "--porcelain")
    dirty = "unknown" if status is None else ("1" if status else "0")
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(build_root, "out"),
               "--git-sha", sha, "--git-dirty", dirty, *extra]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd).returncode)
    sys.exit(worst)


if __name__ == "__main__":
    main()
