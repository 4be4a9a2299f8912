#!/usr/bin/env python3
"""Perf-smoke gate for the microbenchmark suites.

Compares a fresh ``--benchmark_format=json`` run against a checked-in
baseline (BENCH_infer.json, BENCH_factor.json) and fails when any benchmark
got more than ``--max-ratio`` times slower than its recorded real_time.
Also verifies speedup invariants within the *current* run (so machine speed
cancels out):

  - With no ``--speedup`` flags (the bench_infer invocation): dirty-clique
    caching must keep its advertised win — Calibrate with one dirty clique
    at least ``--min-speedup`` times faster than one with every clique
    dirty (a full recalibration).
  - With one or more ``--speedup SLOW FAST MIN`` triples (the bench_factor
    invocation): benchmark SLOW must be at least MIN times slower than FAST,
    e.g. the scalar kernels vs the detected SIMD level. The built-in
    Calibrate check is skipped in this mode.

The baseline and current name sets must match exactly: a baseline entry
missing from the current run AND a current benchmark absent from the
baseline are both hard failures (a silently-dropped or silently-unbaselined
benchmark is how perf gates rot). ``--allow-missing`` downgrades both
set-mismatch directions to warnings — for intentionally transitional runs,
e.g. landing a new benchmark before its baseline. Benchmarks named in an
explicit ``--speedup`` triple are exempt from the escape hatch: if one of
those is missing the gate always fails, because the speedup invariant
simply was not checked.

Usage:
  check_bench_regression.py BENCH_infer.json current.json [--max-ratio 2.0]
  check_bench_regression.py BENCH_factor.json current.json \
      --speedup BM_Exp/1 BM_Exp/2 2.0
  check_bench_regression.py --update BENCH_infer.json current.json

``current.json`` is raw google-benchmark JSON output. ``--update`` rewrites
the baseline from the current run (keeping only the fields the gate reads).
"""

import argparse
import json
import sys

FULL = "BM_CalibrateAllDirty/24"
ONE_DIRTY = "BM_CalibrateOneDirtyFar/24"


def load_benchmarks(path):
    """Returns {name: real_time_ns} from either raw google-benchmark JSON or
    a simplified baseline written by --update."""
    with open(path) as f:
        doc = json.load(f)
    benchmarks = doc.get("benchmarks")
    if isinstance(benchmarks, dict):  # simplified baseline
        return {name: entry["real_time"] for name, entry in benchmarks.items()}
    out = {}
    for entry in benchmarks:  # raw google-benchmark output
        if entry.get("run_type", "iteration") != "iteration":
            continue
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
            entry.get("time_unit", "ns")]
        out[entry["name"]] = entry["real_time"] * scale
    return out


def write_baseline(path, current):
    doc = {
        "comment": "Baseline real_time (ns); regenerate with "
                   "scripts/check_bench_regression.py --update",
        "benchmarks": {
            name: {"real_time": t, "time_unit": "ns"}
            for name, t in sorted(current.items())
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail if current/baseline exceeds this")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required AllDirty/OneDirtyFar ratio "
                             "within the current run")
    parser.add_argument("--speedup", nargs=3, action="append", default=[],
                        metavar=("SLOW", "FAST", "MIN"),
                        help="require current[SLOW]/current[FAST] >= MIN; "
                             "repeatable; replaces the built-in Calibrate "
                             "speedup check")
    parser.add_argument("--allow-missing", action="store_true",
                        help="downgrade baseline/current name-set mismatches "
                             "to warnings (benchmarks named in --speedup "
                             "triples still hard-fail when missing)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    args = parser.parse_args()

    current = load_benchmarks(args.current)
    if args.update:
        write_baseline(args.baseline, current)
        print(f"wrote {args.baseline} ({len(current)} benchmarks)")
        return 0

    failures = []
    baseline = load_benchmarks(args.baseline)

    def set_mismatch(message):
        if args.allow_missing:
            print(f"warning: {message} (--allow-missing)", file=sys.stderr)
        else:
            failures.append(message)

    for name, base_time in sorted(baseline.items()):
        if name not in current:
            set_mismatch(f"{name}: missing from current run")
            continue
        ratio = current[name] / base_time
        status = "FAIL" if ratio > args.max_ratio else "ok"
        print(f"{status:4} {name}: {base_time / 1e3:.1f}us -> "
              f"{current[name] / 1e3:.1f}us ({ratio:.2f}x)")
        if ratio > args.max_ratio:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline "
                            f"(limit {args.max_ratio}x)")
    for name in sorted(set(current) - set(baseline)):
        set_mismatch(f"{name}: present in current run but not in the "
                     f"baseline (regenerate with --update)")

    if args.speedup:
        for slow, fast, min_ratio in args.speedup:
            min_ratio = float(min_ratio)
            if slow not in current or fast not in current:
                failures.append(f"speedup check {slow} vs {fast}: benchmark "
                                f"missing from current run")
                continue
            speedup = current[slow] / current[fast]
            print(f"speedup {slow} / {fast} (current run): {speedup:.2f}x")
            if speedup < min_ratio:
                failures.append(f"{fast} only {speedup:.2f}x faster than "
                                f"{slow} (need {min_ratio}x)")
    elif FULL in current and ONE_DIRTY in current:
        speedup = current[FULL] / current[ONE_DIRTY]
        print(f"dirty-clique caching speedup (current run): {speedup:.2f}x")
        if speedup < args.min_speedup:
            failures.append(f"one-dirty Calibrate only {speedup:.2f}x faster "
                            f"than all-dirty recalibration "
                            f"(need {args.min_speedup}x)")
    else:
        failures.append("current run is missing the Calibrate benchmarks")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
