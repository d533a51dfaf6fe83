#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (IQR as a share of the median).

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads headline,fleet] [--seeds 1-10]
                                [--seconds N] [--trace 0|1]

It runs the command in BENCHMARK.json once per (workload, seed), in that
order, and marks every spread at or above a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]

    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {n: round(v[-1], 4) for n, v in values.items()}, flush=True)
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = " STEADY" if bound is None or spread < bound / 3 else " WIDE"
            print(f"{workload:>10} {m['name']:<40} median {med:.6g} spread {spread:.4f}"
                  + (f" bound {bound}{flag}" if bound is not None else ""), flush=True)


if __name__ == "__main__":
    main()
