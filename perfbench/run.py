#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload cholesky|stencil_fine|nested_submit \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and perfbench/driver.cpp with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the checkout; later runs only re-check the
build. The driver makes its inputs from --seed, checks every iteration
against a sequential oracle, and prints raw timings; this script derives
the metrics (perfbench/metrics.py) and prints, on stdout:

  * one line per metric: name, value, unit and sample count;
  * one JSON line with the full detail: every metric with its samples or
    ratio base, the echoed runtime Config, and the host fingerprint;
  * as the last line, the result object
    {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer metrics of a traced run (see BENCHMARK.json). Exits
non-zero without a result line if the build, the run or the parsing fails.
"""

import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("cholesky", "stencil_fine", "nested_submit")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(out_dir):
    """Configure once, then build the driver; serialized by a lock file."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT}", 2)
    build_dir = out_dir / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out_dir / "perfbench.lock", "w") as lock, open(log, "w") as lg:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "perfbench_driver"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=lg, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                lg.flush()
                tail = log.read_text(errors="replace")[-3000:]
                fail(f"build step failed: {' '.join(cmd)}\n{tail}", 3)
    return build_dir / "perfbench_driver"


def host_fingerprint():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "build_type": BUILD_TYPE, "machine": platform.machine()}


def steal_ticks():
    """(steal, total) CPU ticks of the host's VM since boot, or None: the
    time other guests took from this one, reported beside each run."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields[:8])
    except (OSError, ValueError, IndexError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not 1 <= a.seconds <= 60:
        fail("--seconds must be within 1..60", 2)
    if a.seed < 0:
        fail("--seed must be non-negative", 2)

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = build(out_dir)
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    spans_path = out_dir / "perfbench-spans" / f"{a.workload}.tsv"
    if a.trace:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans_path)]
    steal0 = steal_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s", 4)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing", 4)
    raw = json.loads(lines[-1])
    steal1 = steal_ticks()

    if a.trace:
        with open(spans_path) as f:
            bench, tasks = metrics.read_spans(f)
        reported = metrics.per_layer(raw, bench, tasks)
        detail = {}
    else:
        reported, detail = metrics.end_to_end(raw)
    if steal0 and steal1 and steal1[1] > steal0[1]:
        detail["host.steal_frac"] = metrics.ratio(
            steal1[0] - steal0[0], steal1[1] - steal0[1])

    attempted, failed = raw["attempted"], raw["failed"]
    for name, m in {**reported, **detail}.items():
        n = m.get("samples")
        base = f"  ({m['num']:.6g} / {m['den']:.6g})" if "den" in m else ""
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:8s}"
              + (f" n={n}" if n is not None else "") + base)
    print(json.dumps({
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "host": host_fingerprint(),
        "threads": raw["threads"], "config": raw["config"],
        "tasks_per_iter": raw["tasks_per_iter"],
        "metrics": reported, "detail": detail,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in reported.items()},
    }))


if __name__ == "__main__":
    main()
