#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

For every workload and end-to-end metric, prints the median of the runs,
the spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median),
and how that spread compares with a third of the metric's bound in
BENCHMARK.json. Run from the root of a checkout.
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
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        print(f"{workload}:")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                share = spread / (bound / 3)
                worst = max(worst, share)
                verdict = f"{share:5.2f} of bound/3"
            print(f"  {name:34s} median {median:12.6g}  spread {spread:7.4f}"
                  f"  {verdict}")
        print(json.dumps({"workload": workload, "seeds": seeds,
                          "values": values}))
    if args.trace == 0:
        print(f"worst spread: {worst:.2f} of a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
