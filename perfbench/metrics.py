"""Metric derivation for the repository benchmark.

Pure functions from the driver's raw JSON (and, for a traced run, its span
file) to the reported metrics. Kept apart from run.py so that
perfbench/tests/test_metrics.py can check every rule on hand-made inputs:

* a timing is reported with its median, its fast decile and a tail at the
  highest percentile that still has at least ten samples beyond it;
* every ratio carries its numerator and denominator (its base);
* a span's self time is its duration minus the part of its interval that
  its child spans cover.
"""

import bisect
import math
from collections import defaultdict

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

# Task types whose bodies are hyper-matrix block copies (apps/cholesky.cpp).
COPY_TASKS = ("get_block", "put_block")

# Floating-point operations of one m x m kernel call (blas/kernels.hpp).
KERNEL_FLOPS = {
    "blas.gemm": lambda m: 2.0 * m ** 3,
    "blas.syrk": lambda m: float(m) * m * (m + 1),
    "blas.trsm": lambda m: float(m) ** 3,
    "blas.potrf": lambda m: m ** 3 / 3.0,
}


# --- order statistics ----------------------------------------------------------

def median(xs):
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (the
    tolerance keeps 99.9% of 10000 at rank 9990, not 9991)."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    return s[rank(len(s), p) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n, ladder=TAIL_LADDER):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it,
    or None when even the lowest has fewer."""
    ok = [p for p in ladder if beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def ratio(num, den, unit="ratio"):
    """A ratio reported with its base; 0 when the base is empty."""
    return {"value": num / den if den else 0.0, "unit": unit,
            "num": num, "den": den}


def metric(value, unit, samples=None):
    m = {"value": value, "unit": unit}
    if samples is not None:
        m["samples"] = samples
    return m


# --- end-to-end ----------------------------------------------------------------

def end_to_end(raw):
    """Metrics of the untraced run. The gated rate uses the 10th-percentile
    iteration time: on a shared virtual host, time stolen by other guests
    spread the median over 69% and the 90th percentile over 150% across
    ten identical runs, the fast decile over 21% (see README.md). The
    median and the tail are reported beside it, ungated."""
    walls = [it[0] for it in raw["untraced"]["iters"]]
    n = len(walls)
    fast = percentile(walls, 10.0)
    med = median(walls)
    out = {
        "tasks_per_s": metric(raw["tasks_per_iter"] / fast, "1/s", n),
        "setup_s": metric(median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "peak_rss_mb": metric(raw["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    detail = {
        "iter_s_p10": metric(fast, "s", n),
        "iter_s_p50": metric(med, "s", n),
        "iter_s_p90": metric(percentile(walls, 90.0), "s", n),
        "tasks_per_s_p50": metric(raw["tasks_per_iter"] / med, "1/s", n),
    }
    tail = tail_percentile(n)
    if tail is not None:
        detail["iter_s_tail"] = dict(metric(percentile(walls, tail), "s", n),
                                     percentile=tail)
    if raw.get("flops_per_iter"):
        detail["gflops"] = metric(raw["flops_per_iter"] / fast * 1e-9,
                                  "GFLOP/s", n)
    return out, detail


# --- spans ---------------------------------------------------------------------

class Span:
    __slots__ = ("name", "layer", "worker", "start", "end", "parent",
                 "children", "is_task")

    def __init__(self, name, layer, worker, start, end, is_task=False):
        self.name, self.layer, self.worker = name, layer, worker
        self.start, self.end = start, end
        self.is_task = is_task
        self.parent = None
        self.children = []

    @property
    def dur(self):
        return self.end - self.start


def layer_of(name, is_task):
    if is_task:
        return "hyper" if name in COPY_TASKS else "task"
    return name.split(".", 1)[0]


def read_spans(lines):
    """Parse the driver's span file: 'S name thread start end' for the
    benchmark's own spans, 'T type worker start end seq parent' for the
    Runtime's Tracer events. Returns (bench spans with thread ids, tasks)."""
    bench, tasks = [], []
    for line in lines:
        f = line.rstrip("\n").split("\t")
        if f[0] == "S":
            bench.append((int(f[2]), Span(f[1], layer_of(f[1], False), None,
                                          int(f[3]), int(f[4]))))
        elif f[0] == "T":
            tasks.append(Span(f[1], layer_of(f[1], True), int(f[2]),
                              int(f[3]), int(f[4]), is_task=True))
    return bench, tasks


def map_threads(bench, tasks):
    """Assign each benchmark-span thread to the Runtime worker it ran on.
    Thread 0 is the main thread (worker 0). Every span another thread
    records lies inside a task body, so the thread takes the worker whose
    outermost bodies enclose most of its spans; a thread no body encloses
    keeps a worker id of its own."""
    by_worker = defaultdict(list)
    for t in tasks:
        by_worker[t.worker].append(t)
    outer = {}
    for w, ts in by_worker.items():
        ts.sort(key=lambda t: (t.start, -t.end))
        top, cur_end = [], None
        for t in ts:
            if cur_end is None or t.start >= cur_end:
                top.append(t)
                cur_end = t.end
        outer[w] = ([t.start for t in top], top)
    votes = defaultdict(lambda: defaultdict(int))
    for tid, s in bench:
        if tid == 0:
            continue
        for w, (starts, top) in outer.items():
            i = bisect.bisect_right(starts, s.start) - 1
            if i >= 0 and s.end <= top[i].end:
                votes[tid][w] += 1
    mapping = {0: 0}
    for tid, s in bench:
        if tid not in mapping:
            v = votes.get(tid)
            mapping[tid] = max(v, key=v.get) if v else -1 - tid
        s.worker = mapping[tid]
    return mapping


def build_tree(spans):
    """Link every span to its parent: the innermost span on the same worker
    whose interval encloses it; a task body that no span on its own worker
    encloses hangs off the iteration that was running when it started."""
    by_worker = defaultdict(list)
    for s in spans:
        by_worker[s.worker].append(s)
    for ws in by_worker.values():
        ws.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in ws:
            while stack and not (stack[-1].start <= s.start and
                                 s.end <= stack[-1].end):
                stack.pop()
            if stack:
                s.parent = stack[-1]
            stack.append(s)
    iters = sorted((s for s in spans if s.name == "iteration"),
                   key=lambda s: s.start)
    starts = [s.start for s in iters]
    for s in spans:
        if s.parent is None and s.is_task and iters:
            i = bisect.bisect_right(starts, s.start) - 1
            if i >= 0 and s.start <= iters[i].end:
                s.parent = iters[i]
    for s in spans:
        if s.parent is not None:
            s.parent.children.append(s)


def covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span):
    return span.dur - covered(span.start, span.end,
                              [(c.start, c.end) for c in span.children])


# --- per-layer -----------------------------------------------------------------

def _stats_ratios(st, workers, threads, window_s):
    spawned = st["tasks_spawned"]
    executed = st["tasks_executed"]
    edges = st["raw_edges"] + st["war_edges"] + st["waw_edges"]
    throttles = (st["nested_throttled"] + st["foreign_throttled"] +
                 st["main_blocked_on_window"] + st["main_blocked_on_memory"])
    mean_exec = sum(workers) / len(workers) if workers else 0
    return {
        "runtime.chained_ratio": ratio(st["chained_executions"], executed),
        "runtime.pool_hit_ratio": ratio(st["pool_hits"],
                                        st["pool_hits"] + st["pool_refills"]),
        "runtime.pool_slabs": metric(st["pool_slabs"], "count"),
        "runtime.throttle_events": metric(throttles, "count"),
        "dep.edges_per_task": ratio(edges, spawned, "1/task"),
        "dep.renames_per_task": ratio(st["renames"], spawned, "1/task"),
        "dep.in_place_ratio": ratio(st["in_place_reuses"],
                                    st["in_place_reuses"] + st["renames"]),
        "dep.rename_bytes_peak": metric(st["rename_bytes_peak"], "B"),
        "dep.cas_retries_per_ktask": ratio(1000 * st["lockfree_cas_retries"],
                                           spawned, "1/ktask"),
        "sched.steal_success_ratio": ratio(st["steals"],
                                           st["steal_attempts"]),
        "sched.steal_attempts_per_task": ratio(st["steal_attempts"],
                                               executed, "1/task"),
        "sched.idle_frac": ratio(st["idle_ns"], threads * window_s * 1e9),
        "sched.idle_sleeps_per_ktask": ratio(1000 * st["idle_sleeps"],
                                             executed, "1/ktask"),
        "sched.locality_hit_ratio": ratio(
            st["locality_hits"], st["locality_hits"] + st["locality_misses"]),
        "sched.worker_imbalance": ratio(max(workers, default=0), mean_exec),
    }


def dispatch_gaps(tasks, iterations):
    """Per worker, the gap between the end of one leaf task body and the
    start of the next, within one iteration."""
    iters = sorted(iterations, key=lambda s: s.start)
    starts = [s.start for s in iters]

    def iteration_of(t):
        i = bisect.bisect_right(starts, t.start) - 1
        return i if i >= 0 and t.end <= iters[i].end else None

    by_worker = defaultdict(list)
    for t in tasks:
        if not any(c.is_task for c in t.children):
            by_worker[t.worker].append(t)
    gaps = []
    for ts in by_worker.values():
        ts.sort(key=lambda t: t.start)
        for a, b in zip(ts, ts[1:]):
            ia = iteration_of(a)
            if ia is not None and ia == iteration_of(b) and b.start >= a.end:
                gaps.append(b.start - a.end)
    return gaps


def per_layer(raw, bench, tasks):
    """Metrics of the traced run. `bench` and `tasks` come from read_spans."""
    threads = raw["threads"]
    traced = raw["traced"]
    its = traced["iters"]
    n_iter = len(its)
    walls = [it[0] for it in its]
    wall_ns = sum(walls) * 1e9
    tasks_total = raw["tasks_per_iter"] * n_iter

    map_threads(bench, tasks)
    spans = [s for _, s in bench] + tasks
    build_tree(spans)
    iterations = [s for s in spans if s.name == "iteration"]

    out = {
        "runtime.ctor_ms": metric(median(raw["ctor_s"]) * 1e3, "ms",
                                  len(raw["ctor_s"])),
        "runtime.submit_ns_per_task": ratio(sum(it[2] for it in its) * 1e9,
                                            tasks_total, "ns"),
        "runtime.submit_share": ratio(sum(it[1] for it in its), sum(walls)),
        "runtime.drain_ms": metric(median([it[3] for it in its]) * 1e3, "ms",
                                   n_iter),
        "runtime.taskwait_ms": metric(median([it[4] for it in its]) * 1e3,
                                      "ms", n_iter),
    }
    out.update(_stats_ratios(traced["stats"], traced["worker_executed"],
                             threads, traced["window_s"]))

    gaps = dispatch_gaps(tasks, iterations)
    out["sched.dispatch_gap_ns_p50"] = metric(
        median(gaps) if gaps else 0, "ns", len(gaps))
    out["task.body_ns_p50"] = metric(
        median([t.dur for t in tasks]) if tasks else 0, "ns", len(tasks))

    # blas: the timed kernel table's spans.
    m = raw.get("blas_block", 0)
    blas_ns, blas_flops = 0, 0.0
    for name, flops in KERNEL_FLOPS.items():
        calls = [s for _, s in bench if s.name == name]
        ns = sum(s.dur for s in calls)
        blas_ns += ns
        blas_flops += flops(m) * len(calls)
        short = name.split(".")[1]
        out[f"blas.{short}_ms"] = metric(ns / 1e6 / max(n_iter, 1), "ms",
                                         len(calls))
        out[f"blas.{short}_calls"] = metric(len(calls) / max(n_iter, 1),
                                            "count")
    out["blas.busy_frac"] = ratio(blas_ns, threads * wall_ns)
    out["blas.kernel_gflops"] = ratio(blas_flops, blas_ns, "GFLOP/s")
    base = raw.get("baselines", {})
    out["blas.standalone_gflops"] = metric(base.get("standalone_gflops", 0),
                                           "GFLOP/s")

    copies = [t for t in tasks if t.name in COPY_TASKS]
    out["hyper.copy_ms"] = metric(
        sum(t.dur for t in copies) / 1e6 / max(n_iter, 1), "ms", len(copies))
    out["hyper.copy_bytes"] = dict(
        metric(raw.get("copy_bytes_per_iter", 0), "B"), computed=True)

    # Self time per layer, per iteration.
    self_ns = defaultdict(int)
    for s in spans:
        self_ns[s.layer] += self_time(s)
    for layer in ("iteration", "runtime", "task", "hyper", "blas"):
        out[f"self_ms.{layer}"] = metric(
            self_ns.get(layer, 0) / 1e6 / max(n_iter, 1), "ms", n_iter)

    # Fast deciles of both phases, for the reason end_to_end gives.
    fast = percentile(walls, 10.0)
    ref = percentile([it[0] for it in raw["untraced"]["iters"]], 10.0)
    out["trace.overhead_frac"] = dict(
        metric(fast / ref - 1.0, "ratio", n_iter),
        base_traced_s=fast, base_untraced_s=ref)

    for key, unit in (("threaded_blas_gflops", "GFLOP/s"),
                      ("seq_gflops", "GFLOP/s"),
                      ("smpss_1t_gflops", "GFLOP/s"),
                      ("threaded_blas_1t_gflops", "GFLOP/s"),
                      ("forkjoin_tasks_per_s", "1/s")):
        out[f"baselines.{key}"] = metric(base.get(key, 0), unit)
    return out
