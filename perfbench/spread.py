#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --seeds 10 --first-seed 101
    python3 perfbench/spread.py --workloads iid_storm --seeds 5

Run from the repository root. For every workload and metric it prints the
median over the seeds and the spread, (q3 - q1) / median with the
quartiles of statistics.quantiles(values, n=4), next to the metric's
bound from BENCHMARK.json. Use a first seed you have not tuned on to
check a result on held-out inputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.seeds} seeds from {args.first_seed})")
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"  {name:42s} median {med:14.6g}"
            if len(vals) >= 2 and med != 0:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
                line += f"  spread {spread:8.4f}"
                if bounds.get(name) is not None:
                    line += f"  bound {bounds[name]:.3f}"
                    if spread > bounds[name] / 3:
                        line += "  <-- above a third of its bound"
            line += "\n      " + " ".join(f"{v:.5g}" for v in vals)
            print(line, flush=True)


if __name__ == "__main__":
    main()
