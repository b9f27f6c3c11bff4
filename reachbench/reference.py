#!/usr/bin/env python3
"""Runs reachbench over several seeds and prints each metric's spread.

Usage (from the root of the checkout):
  python3 reachbench/reference.py [--seeds 1-10] [--workloads a,b]
                                  [--trace 0|1] [--seconds S]

For every workload named in BENCHMARK.json (or the ones given) it runs
reachbench/run.py once per seed, one run at a time, and prints a markdown
table: the median of each metric over the seeds, and the distance between
the first and third quartiles as a share of the median -- the figures the
README's reference table records. It also checks that every run printed
exactly the metrics BENCHMARK.json names, with their units, and failed no
operation. Exits non-zero if any run failed or disagreed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    args = ap.parse_args()
    expected = spec["per_layer" if args.trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}

    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in units}
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if {n: m["unit"] for n, m in metrics.items()} != units:
                print(f"{workload} seed {seed}: metrics differ from "
                      "BENCHMARK.json", file=sys.stderr)
                ok = False
            if result["failed"] != 0 or not result["correct"]:
                ok = False
            runs.append((seed, result["attempted"], result["failed"]))
            for name, m in metrics.items():
                if name in values:
                    values[name].append(m["value"])
        print(f"\n{workload} (trace {args.trace}, seeds {args.seeds}, "
              f"{args.seconds} s): attempted/failed per seed "
              + ", ".join(f"{s}: {a}/{f}" for s, a, f in runs))
        print("\n| metric | unit | median | IQR / median |\n|---|---|---|---|")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            print(f"| {name} | {units[name]} | {med:.6g} | {spread:.3f} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
