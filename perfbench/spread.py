#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--seconds S]
                                [--trace 0|1] [--json PATH] [WORKLOAD ...]

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json.  `--trace 1` lists the per-layer metrics instead, with the
counters' spread (which is zero only when the seeds share their inputs).
`--json PATH` also writes every run's metric values, by workload and
metric, so that two sweeps of the same seeds can be compared.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values_by_workload = {}
    for workload in args.workloads:
        runs = [run(workload, args.first_seed + i, args.seconds, args.trace)
                for i in range(args.seeds)]
        print(f"== {workload} ({args.seeds} seeds)")
        values_by_workload[workload] = {
            name: [r[name] for r in runs] for name in runs[0]}
        for name, values in values_by_workload[workload].items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:34s} median {med:14.6g}  spread {spread:7.2%}"
                  f"  bound {bound}{flag}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(values_by_workload, f, indent=1)


if __name__ == "__main__":
    main()
