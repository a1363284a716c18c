#!/usr/bin/env python3
"""Steadiness check for the celog benchmark.

    python3 perfbench/steady.py --workload serve-mix --runs 10 [--first-seed 1]
    python3 perfbench/steady.py --workload all --runs 10 --sets 2

Runs perfbench/run.py repeatedly on one workload (or each workload), one
seed per run, and reports for every end-to-end metric of BENCHMARK.json the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread,
(Q3 - Q1) / median. A metric whose spread exceeds its bound is flagged
OVER; one above a third of its bound is flagged WIDE (the target for a
steady benchmark is below a third). With --sets 2 the runs are repeated on
the same seeds and each metric's second median is compared with the first:
a change worse than the bound is flagged DRIFT. Exit code 1 when anything
is flagged OVER or DRIFT, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-grid", "exascale-gen", "fleet-campaign", "serve-mix"]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_set(workload, seeds, seconds):
    values = {}
    for seed in seeds:
        metrics = one_run(workload, seed, seconds)
        if metrics is None:
            print("  seed %d: run FAILED" % seed, flush=True)
            return None
        print("  seed %d: %s" % (seed, "  ".join(
            "%s=%.5g" % kv for kv in metrics.items())), flush=True)
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
    return values


def better_ratio(spec, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if spec["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 (quartiles)")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        specs = json.load(f)["end_to_end"]

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    bad = False
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        medians = []
        for s in range(args.sets):
            print("== %s, set %d, seeds %d..%d" % (workload, s + 1, seeds[0],
                                                   seeds[-1]), flush=True)
            values = run_set(workload, seeds, args.seconds)
            if values is None:
                bad = True
                break
            medians.append({})
            for spec in specs:
                v = values[spec["name"]]
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                medians[-1][spec["name"]] = med
                flag = ""
                if spread > spec["bound"]:
                    flag = "OVER"
                    bad = True
                elif spread > spec["bound"] / 3:
                    flag = "WIDE"
                print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                      "%6.2f%% (bound %4.1f%%) %s" % (
                          spec["name"], med, q1, q3, 100 * spread,
                          100 * spec["bound"], flag), flush=True)
        if len(medians) == 2:
            for spec in specs:
                worse = better_ratio(spec, medians[0][spec["name"]],
                                     medians[1][spec["name"]])
                flag = "DRIFT" if worse > spec["bound"] else ""
                bad = bad or bool(flag)
                print("  %-14s second median worse by %6.2f%% (bound %4.1f%%) %s"
                      % (spec["name"], 100 * worse, 100 * spec["bound"], flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
