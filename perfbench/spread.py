#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median).

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run from the repository root. The bound each spread must stay within is
read from BENCHMARK.json; a spread above a third of its bound is flagged,
for every metric, set-up time included. Each run's wall time is printed
too: the whole set of runs has to fit the time the contract allows.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
            result = json.loads(last)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} incorrect: {last}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- over a third of the bound"
            worst = max(worst, spread / bounds[name])
            print(f"{workload:15} {name:18} median {med:14.6g}  spread {spread:7.2%}  "
                  f"bound {bounds[name]:.0%}{flag}", flush=True)
            print("    " + " ".join(f"{x:.4g}" for x in v), flush=True)
        print(f"{workload:15} wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
