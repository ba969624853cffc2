#!/usr/bin/env python3
"""Unit tests for bench_compare.py (run from ctest as `bench_compare_unit`).

Covers the regression gate's edge cases around the baseline: a missing
baseline directory seeds instead of failing, a zero or missing baseline
median (the ``::p99_ns`` hazard) reports "new benchmark" instead of
crashing the gate, baseline rows the current run no longer produces are
reported as "removed" without failing, and genuine throughput/tail
regressions still fail.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def bench_row(name, tasks_per_s=None, real_time=None, p99_ns=None,
              aggregate=None):
    row = {"name": name, "run_name": name}
    if aggregate is not None:
        row["run_type"] = "aggregate"
        row["aggregate_name"] = aggregate
    if tasks_per_s is not None:
        row["tasks_per_s"] = tasks_per_s
    if real_time is not None:
        row["real_time"] = real_time
    if p99_ns is not None:
        row["p99_ns"] = p99_ns
    return row


def write_bench(dirpath, fname, rows):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, fname), "w") as f:
        json.dump({"benchmarks": rows}, f)


def run_gate(baseline, current, threshold=0.20):
    argv = sys.argv
    sys.argv = ["bench_compare.py", "--baseline", baseline,
                "--current", current, "--threshold", str(threshold)]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = bench_compare.main()
    finally:
        sys.argv = argv
    return code, out.getvalue()


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "baseline")
        self.cur = os.path.join(self.tmp.name, "current")
        os.makedirs(self.cur)

    def tearDown(self):
        self.tmp.cleanup()

    def test_missing_baseline_dir_seeds(self):
        write_bench(self.cur, "BENCH_x.json", [bench_row("BM_A/1",
                                                         tasks_per_s=100.0)])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 0)
        self.assertIn("no baseline yet", out)
        self.assertIn("| `BM_A/1` | — |", out)

    def test_missing_baseline_entry_reports_new(self):
        write_bench(self.base, "BENCH_x.json", [bench_row("BM_A/1",
                                                          tasks_per_s=100.0)])
        write_bench(self.cur, "BENCH_x.json", [
            bench_row("BM_A/1", tasks_per_s=100.0),
            bench_row("BM_B/1", tasks_per_s=50.0),
        ])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 0)
        self.assertIn("| `BM_B/1` | — |", out)
        self.assertIn("| new |", out)

    def test_baseline_row_absent_from_current_reports_removed(self):
        # A deleted benchmark used to vanish from the table silently.
        write_bench(self.base, "BENCH_x.json", [
            bench_row("BM_A/1", tasks_per_s=100.0),
            bench_row("BM_Gone/1", tasks_per_s=70.0),
        ])
        write_bench(self.base, "BENCH_old.json", [
            bench_row("BM_Old/1", tasks_per_s=30.0)])
        write_bench(self.cur, "BENCH_x.json", [bench_row("BM_A/1",
                                                         tasks_per_s=100.0)])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 0)
        self.assertIn("| `BM_Gone/1` | 70.00 | — | — | removed |", out)
        self.assertIn("| `BM_Old/1` | 30.00 | — | — | removed |", out)
        self.assertIn("gate passed (1 benchmark(s) compared against the "
                      "baseline, 2 removed)", out)

    def test_zero_baseline_median_reports_new_not_crash(self):
        # A baseline recorded before the counter existed: tasks_per_s == 0.
        # Dividing by it used to crash/skip; it must gate as "new".
        write_bench(self.base, "BENCH_x.json", [bench_row("BM_A/1",
                                                          tasks_per_s=0.0)])
        write_bench(self.cur, "BENCH_x.json", [bench_row("BM_A/1",
                                                         tasks_per_s=120.0)])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 0)
        self.assertIn("| `BM_A/1` | — |", out)
        self.assertIn("| new |", out)

    def test_p99_row_with_zero_baseline_is_new(self):
        # Baseline has throughput but its p99_ns was zero (filtered out on
        # load), current exports a real tail: the ::p99_ns row is new, the
        # throughput row still gates normally.
        write_bench(self.base, "BENCH_s.json", [
            bench_row("BM_S/1", tasks_per_s=100.0, p99_ns=0)])
        write_bench(self.cur, "BENCH_s.json", [
            bench_row("BM_S/1", tasks_per_s=100.0, p99_ns=5000.0)])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 0)
        self.assertIn("| `BM_S/1::p99_ns` | — |", out)

    def test_throughput_regression_fails(self):
        write_bench(self.base, "BENCH_x.json", [bench_row("BM_A/1",
                                                          tasks_per_s=1000.0)])
        write_bench(self.cur, "BENCH_x.json", [bench_row("BM_A/1",
                                                         tasks_per_s=500.0)])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_p99_regression_fails(self):
        write_bench(self.base, "BENCH_s.json", [
            bench_row("BM_S/1", tasks_per_s=100.0, p99_ns=1000.0)])
        write_bench(self.cur, "BENCH_s.json", [
            bench_row("BM_S/1", tasks_per_s=100.0, p99_ns=5000.0)])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 1)
        self.assertIn("BM_S/1::p99_ns", out)

    def test_within_threshold_passes(self):
        write_bench(self.base, "BENCH_x.json", [bench_row("BM_A/1",
                                                          tasks_per_s=1000.0)])
        write_bench(self.cur, "BENCH_x.json", [bench_row("BM_A/1",
                                                         tasks_per_s=950.0)])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 0)
        self.assertIn("gate passed", out)

    def test_aggregate_median_preferred_and_none_safe(self):
        # Aggregates carry the gate; a raw-only metric coexists.
        write_bench(self.base, "BENCH_x.json", [
            bench_row("BM_A/1", tasks_per_s=900.0, aggregate="mean"),
            bench_row("BM_A/1", tasks_per_s=1000.0, aggregate="median"),
        ])
        write_bench(self.cur, "BENCH_x.json", [
            bench_row("BM_A/1", tasks_per_s=980.0, aggregate="median"),
        ])
        code, out = run_gate(self.base, self.cur)
        self.assertEqual(code, 0)
        self.assertIn("gate passed (1 benchmark(s)", out)


if __name__ == "__main__":
    unittest.main()
