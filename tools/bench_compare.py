#!/usr/bin/env python3
"""Perf-regression gate over Google Benchmark JSON artifacts.

Diffs the current run's BENCH_*.json files against a baseline directory
(the latest successful main run, restored from the CI cache keyed
``bench-baseline``), prints a trajectory table (and appends it to
``$GITHUB_STEP_SUMMARY`` when set), and exits non-zero when any benchmark's
median throughput regressed by more than the threshold.

Throughput is taken from the ``tasks_per_s`` user counter (higher is
better); benchmarks without it fall back to ``real_time`` (lower is
better). Benchmarks that export a ``p99_ns`` latency counter (the service
benches) are additionally gated on the tail: a ``name::p99_ns`` row
(lower is better) rides next to the throughput row, so a change that keeps
the median rate but blows up the latency tail still fails the gate.
Repetition aggregates: the ``_median`` entry is preferred, then ``_mean``,
then the median over raw repetitions.

Usage:
    bench_compare.py --baseline DIR --current DIR [--threshold 0.20]

A missing baseline directory or file is not a failure — the first run on a
fresh cache seeds the baseline instead of gating against nothing. Baseline
rows the current run no longer produces (a deleted or renamed benchmark)
are listed as ``removed``: visible in the table, never failing the gate.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_medians(path):
    """Map benchmark name -> (value, higher_is_better) medians."""
    with open(path) as f:
        data = json.load(f)
    raw = {}
    aggregates = {}
    for b in data.get("benchmarks", []):
        name = b.get("run_name") or b.get("name", "")
        if not name:
            continue
        metrics = []
        counters_value = b.get("tasks_per_s")
        if counters_value is not None:
            metrics.append((name, float(counters_value), True))
        else:
            metrics.append((name, float(b.get("real_time", 0.0)), False))
        p99 = b.get("p99_ns")
        if p99 is not None and float(p99) > 0:
            metrics.append((f"{name}::p99_ns", float(p99), False))
        for mname, value, higher in metrics:
            if b.get("run_type") == "aggregate":
                if b.get("aggregate_name") in ("median", "mean"):
                    aggregates.setdefault(mname, {})[b["aggregate_name"]] = (
                        value, higher)
            else:
                raw.setdefault(mname, []).append((value, higher))
    out = {}
    for name, aggs in aggregates.items():
        picked = aggs.get("median") or aggs.get("mean")
        if picked is None:
            # No usable aggregate for this metric; leave it to the raw
            # repetitions below rather than storing a row that would make
            # the gate loop unpack None.
            continue
        out[name] = picked
    for name, samples in raw.items():
        if name in out:
            continue
        values = [v for v, _ in samples]
        out[name] = (statistics.median(values), samples[0][1])
    return out


def fmt(value):
    for unit, div in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if abs(value) >= div:
            return f"{value / div:.2f}{unit}"
    return f"{value:.2f}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True,
                    help="directory with the baseline BENCH_*.json files")
    ap.add_argument("--current", required=True,
                    help="directory with this run's BENCH_*.json files")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max tolerated median regression (0.20 = 20%%)")
    args = ap.parse_args()

    current_files = sorted(glob.glob(os.path.join(args.current,
                                                  "BENCH_*.json")))
    if not current_files:
        print(f"error: no BENCH_*.json under {args.current}", file=sys.stderr)
        return 2

    lines = ["| benchmark | baseline | current | delta | verdict |",
             "|---|---|---|---|---|"]
    regressions = []
    compared = 0
    removed = 0
    # Baseline files the current run did not produce at all contribute
    # their rows as removed, like rows missing from a shared file.
    fnames = sorted({os.path.basename(p) for p in current_files} |
                    {os.path.basename(p) for p in glob.glob(
                        os.path.join(args.baseline, "BENCH_*.json"))})
    for fname in fnames:
        cur_path = os.path.join(args.current, fname)
        base_path = os.path.join(args.baseline, fname)
        current = load_medians(cur_path) if os.path.exists(cur_path) else {}
        baseline = load_medians(base_path) if os.path.exists(base_path) else {}
        for name, (cur, higher) in sorted(current.items()):
            entry = baseline.get(name)
            base = entry[0] if entry is not None else None
            if base is None or base <= 0:
                # Absent from the baseline, or present with a zero/unusable
                # median (e.g. a ::p99_ns row recorded before the counter
                # existed): nothing to divide by. Report "new benchmark"
                # instead of crashing or silently dropping the row — the
                # next baseline promotion picks it up for real gating.
                lines.append(f"| `{name}` | — | {fmt(cur)} | — | new |")
                continue
            compared += 1
            # Normalize to "relative throughput change" regardless of metric
            # direction, so the table always reads higher-is-better.
            change = (cur - base) / base if higher else (base - cur) / base
            verdict = "ok"
            if change < -args.threshold:
                verdict = "REGRESSION"
                regressions.append((name, change))
            elif change > args.threshold:
                verdict = "improved"
            lines.append(f"| `{name}` | {fmt(base)} | {fmt(cur)} | "
                         f"{change * 100:+.1f}% | {verdict} |")
        for name in sorted(set(baseline) - set(current)):
            removed += 1
            lines.append(f"| `{name}` | {fmt(baseline[name][0])} | — | — | "
                         f"removed |")

    title = "## Bench trajectory vs. main baseline"
    if compared == 0:
        title += " (no baseline yet — this run seeds it)"
    table = title + "\n\n" + "\n".join(lines) + "\n"
    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(table)

    if regressions:
        worst = ", ".join(f"{n} ({c * 100:+.1f}%)" for n, c in regressions)
        print(f"FAIL: median throughput regressed beyond "
              f"{args.threshold * 100:.0f}%: {worst}", file=sys.stderr)
        return 1
    note = f", {removed} removed" if removed else ""
    print("bench-compare: gate passed "
          f"({compared} benchmark(s) compared against the baseline{note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
