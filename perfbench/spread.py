#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each named
workload and reports, per metric, the median, the interquartile range as a
share of the median (statistics.quantiles, n=4) and the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 batch_paper serve_mix

Run it from the repository root. Exits 1 if any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run not correct\n{out}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: wall_s {values['wall_s'][-1]:.4f}", flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bounds[name])
            flag = "ok" if spread <= bounds[name] / 3 else ("WITHIN BOUND" if spread <= bounds[name] else "OVER")
            print(f"  {workload:<15} {name:<15} median {med:<12.6g} spread {spread:7.4f} "
                  f"bound {bounds[name]:<5} {flag}  [{' '.join(f'{v:.4g}' for v in vs)}]")
    sys.exit(1 if worst > 1.0 else 0)


if __name__ == "__main__":
    main()
