#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py.

Covers the name-set gate: a baseline entry missing from the current run and
a current benchmark absent from the baseline must both hard-fail, the
``--allow-missing`` escape hatch downgrades both to warnings, and a
benchmark named in an explicit ``--speedup`` triple hard-fails when missing
even under ``--allow-missing``.

Run directly (``python3 scripts/check_bench_regression_test.py``) or via
ctest (registered as check_bench_regression_test).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")

# The built-in Calibrate speedup check (used when no --speedup triples are
# given) requires these two names; include them in every fixture so the
# tests exercise only the behavior under test.
FULL = "BM_CalibrateAllDirty/24"
ONE_DIRTY = "BM_CalibrateOneDirtyFar/24"


def write_baseline(path, times):
    doc = {
        "comment": "test fixture",
        "benchmarks": {
            name: {"real_time": t, "time_unit": "ns"}
            for name, t in times.items()
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def write_current(path, times):
    doc = {
        "benchmarks": [
            {"name": name, "real_time": t, "time_unit": "ns",
             "run_type": "iteration"}
            for name, t in times.items()
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def run_gate(baseline, current, *extra_args):
    return subprocess.run(
        [sys.executable, SCRIPT, baseline, current, *extra_args],
        capture_output=True, text=True)


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = os.path.join(self.tmp.name, "baseline.json")
        self.current = os.path.join(self.tmp.name, "current.json")
        self.times = {FULL: 10000.0, ONE_DIRTY: 1000.0, "BM_Other/0": 500.0}

    def tearDown(self):
        self.tmp.cleanup()

    def test_matching_sets_pass(self):
        write_baseline(self.baseline, self.times)
        write_current(self.current, self.times)
        result = run_gate(self.baseline, self.current)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_baseline_name_missing_from_current_fails(self):
        write_baseline(self.baseline, self.times)
        current = dict(self.times)
        del current["BM_Other/0"]
        write_current(self.current, current)
        result = run_gate(self.baseline, self.current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_Other/0: missing from current run", result.stderr)

    def test_current_name_missing_from_baseline_fails(self):
        write_baseline(self.baseline, self.times)
        current = dict(self.times)
        current["BM_New/0"] = 700.0
        write_current(self.current, current)
        result = run_gate(self.baseline, self.current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_New/0", result.stderr)
        self.assertIn("not in the baseline", result.stderr)

    def test_allow_missing_downgrades_both_directions(self):
        write_baseline(self.baseline, self.times)
        current = dict(self.times)
        del current["BM_Other/0"]
        current["BM_New/0"] = 700.0
        write_current(self.current, current)
        result = run_gate(self.baseline, self.current, "--allow-missing")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("warning:", result.stderr)
        self.assertIn("BM_Other/0", result.stderr)
        self.assertIn("BM_New/0", result.stderr)

    def test_speedup_name_missing_fails_even_with_allow_missing(self):
        write_baseline(self.baseline, self.times)
        write_current(self.current, self.times)
        result = run_gate(self.baseline, self.current, "--allow-missing",
                          "--speedup", "BM_Gone/0", "BM_Other/0", "2.0")
        self.assertEqual(result.returncode, 1)
        self.assertIn("BM_Gone/0", result.stderr)

    def test_speedup_gate_checks_ratio(self):
        write_baseline(self.baseline, self.times)
        write_current(self.current, self.times)
        ok = run_gate(self.baseline, self.current,
                      "--speedup", FULL, ONE_DIRTY, "5.0")
        self.assertEqual(ok.returncode, 0, ok.stderr)
        fail = run_gate(self.baseline, self.current,
                        "--speedup", FULL, ONE_DIRTY, "20.0")
        self.assertEqual(fail.returncode, 1)

    def test_regression_still_fails(self):
        write_baseline(self.baseline, self.times)
        current = dict(self.times)
        current["BM_Other/0"] = self.times["BM_Other/0"] * 3.0
        write_current(self.current, current)
        result = run_gate(self.baseline, self.current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("slower than baseline", result.stderr)


if __name__ == "__main__":
    unittest.main()
