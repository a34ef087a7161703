#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per seed for each workload and prints, per
end-to-end metric, the median and the interquartile range as a share of the
median (Python's statistics.quantiles(values, n=4)), next to the metric's
bound. Run from the repository root:

    python3 ftbench/spread.py --seeds 10 [--workload crash-ec ...] [--seconds 20]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs not correct\n{out.stdout[-4000:]}")
    return result, wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append")
    a = p.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        values = {name: [] for name in bounds}
        failed = attempted = 0
        walls = []
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            result, wall = run_once(bench["command"], w, seed, a.seconds)
            walls.append(wall)
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w}: {a.seeds} runs, {attempted} jobs, {failed} failed, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO WIDE")
            print(f"  {name:<18} median {statistics.median(v):12.4f}  spread {spread:6.3f}  "
                  f"bound {bound:5.2f}  {flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
