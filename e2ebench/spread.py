#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 e2ebench/spread.py --workloads fit-heavy count-heavy --seeds 1 2 3 4 5

Runs `e2ebench/run.py` once per (workload, seed) with tracing off and
prints, per metric, the median and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound from BENCHMARK.json. Use it to check that the
benchmark is steady before trusting a comparison.
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


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED {result}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({time.monotonic() - started:.0f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {workload:12s} {name:16s} median={median:.6g} "
                  f"spread={spread:.3f} bound={bound}{flag}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
