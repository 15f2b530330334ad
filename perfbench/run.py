#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Builds the engine and the benchmark programs from source (first run
only; later runs rebuild incrementally), generates the workload's inputs
for the seed in a separate process, then runs the timed process. The
last line of standard output is the result object; the exit code is 0
only when the run completed and every answer was correct.

The build and the generated inputs live under $CARGO_TARGET_DIR
(default .bench_build) at the root of the checkout.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_hot", "table1_scan", "prepare_cold", "recursive_height")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("failed: " + " ".join(cmd))


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            run_logged(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       os.path.join(build_dir, "configure.log"), 300)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench_gen", "perfbench_run"],
                   os.path.join(build_dir, "build.log"), 840)


def generate(build_dir, workload, seed):
    inputs = os.path.join(build_dir, "inputs", "%s-%d" % (workload, seed))
    if not os.path.isdir(inputs):
        os.makedirs(os.path.dirname(inputs), exist_ok=True)
        run_logged([os.path.join(build_dir, "perfbench_gen"), "--workload",
                    workload, "--seed", str(seed), "--out", inputs],
                   inputs + ".log", 120)
    return inputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(root, build_dir)
    inputs = generate(build_dir, args.workload, args.seed)

    cmd = [os.path.join(build_dir, "perfbench_run"), "--workload",
           args.workload, "--inputs", inputs, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("timed run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail("timed run exited with %d" % done.returncode)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result.get("correct") or result.get("failed"):
        fail("incorrect results")

if __name__ == "__main__":
    main()
