#!/usr/bin/env python3
"""Appends one trajectory entry to perfbench/baseline.json.

Runs `perfbench/run.py` on every workload once per seed (untraced), then
records each end-to-end metric's values, median and quartiles, and the
spread (third minus first quartile over the median):

    python3 perfbench/trajectory.py --label <commit> --seeds 1-10 \\
        --machine "2 cores, ..." [--workloads map-long,serve-mixed]

Run it from the repository root. Every run must pass its correctness
checks, or no entry is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="commit or change the entry measures")
    parser.add_argument("--machine", required=True, help="hardware the runs used")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    entry = {"label": args.label, "machine": args.machine,
             "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            started = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else None
            if proc.returncode != 0 or not result or not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
            print(f"{workload} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry["workloads"][workload] = {name: summary(v) for name, v in values.items()}
        print(json.dumps({workload: entry["workloads"][workload]}), file=sys.stderr)

    trajectory = {"entries": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            trajectory = json.load(f)
    trajectory["entries"].append(entry)
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    for workload, metrics in entry["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:16s} {name:20s} median {s['median']:12.4f} spread {s['spread']:.3f}")


if __name__ == "__main__":
    main()
