#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median.

    python3 e2ebench/spread.py --workload xmark-q1q20 --seeds 1-10

Run it from the repository root; it invokes e2ebench/run.py, which builds
the benchmark on first use. Every run is untraced and as long as
BENCHMARK.json's run_seconds, the length the bounds were set at.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    run = os.path.join(here, "run.py")
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    values = {}
    units = {}
    failed_share = set()
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, run, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed_share.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{'metric':34s} {'median':>12s} {'spread':>8s}  unit  values")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:34s} {med:12.6g} {spread:8.3f}  {units[name]}  "
              + " ".join(f"{v:.4g}" for v in vals))
    print("failed/attempted per run:", sorted(failed_share))


if __name__ == "__main__":
    main()
