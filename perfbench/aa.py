#!/usr/bin/env python3
"""A/A steadiness check: two sets of runs of the same build.

    python3 perfbench/aa.py --runs 10 --seconds 20 --out perfbench/steadiness.json

For each workload, runs set A on seeds 1..N and set B on seeds N+1..2N,
alternating which set goes first in each pair (A B, B A, A B, ...), the
way a parent/change comparison alternates. Records every run's metrics
and, per set and metric, the median, the quartiles
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median, plus the
ratio of B's median to A's. Run from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve_hot", "table1_scan", "prepare_cold", "recursive_height")


def run_once(workload, seed, seconds):
    start = time.time()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, universal_newlines=True)
    if done.returncode != 0:
        raise SystemExit("run failed: %s seed %d\n%s" %
                         (workload, seed, done.stdout[-2000:]))
    result = json.loads(done.stdout.splitlines()[-1])
    return {"seed": seed, "wall_s": round(time.time() - start, 2),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    report = {"runs_per_set": args.runs, "seconds": args.seconds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = 1 + i + (args.runs if name == "B" else 0)
                sets[name].append(run_once(workload, seed, args.seconds))
                print(workload, name, sets[name][-1], flush=True)
        a, b = summarize(sets["A"]), summarize(sets["B"])
        report["workloads"][workload] = {
            "A": {"runs": sets["A"], "summary": a},
            "B": {"runs": sets["B"], "summary": b},
            "b_over_a": {m: b[m]["median"] / a[m]["median"] for m in a},
        }
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
