#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workload paper_mixed --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Runs go one after another through perfbench/run.py from the checkout root.
"""

import argparse
import json
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


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save", help="also write every run's metrics to this JSON file")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        print("seed %d: exit %d correct %s" % (seed, proc.returncode, result.get("correct")), flush=True)
        if not ok:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(1)
        runs.append(result["metrics"])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    print("%-40s %16s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        bound = bounds.get(name)
        s = spread(values) if len(values) > 1 else 0.0
        print("%-40s %16.6g %8.4f %8s" % (name, statistics.median(values), s,
                                          "-" if bound is None else bound))


if __name__ == "__main__":
    main()
