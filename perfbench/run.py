#!/usr/bin/env python3
"""Build catsim from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eto_quad --seed 42 --seconds 30 --trace 0

The library and the benchmark binary are built with CMake (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last
line of standard output is the JSON result; build logs go to stderr.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("eto_quad", "cmrpo_replay", "sweep_cold")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        # Concurrent runs in one checkout share the build tree.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "catsim_perfbench"])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if res.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "catsim_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "sim")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from a catsim checkout root (missing %s)" % needed)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(root, build_dir)

    # The benchmark pins every knob itself; inherited CATSIM_* settings
    # (jobs, caches, journals, fail points) must not leak into a run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CATSIM_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(root, "perfbench", "expected_outputs.tsv")]
    # Replace this process, so the benchmark is the only process left
    # to stop and signals reach it directly.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, cmd, env)


if __name__ == "__main__":
    main()
