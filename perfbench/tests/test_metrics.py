"""Self-test of the benchmark's metric derivation (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests

Covers the percentile rule, that every ratio carries its base, the span
tree and the subtraction of child spans from self time, and that the
derived metric names are exactly those BENCHMARK.json declares.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
from metrics import Span  # noqa: E402

BENCHMARK = HERE.parent.parent / "BENCHMARK.json"


def stats(**over):
    keys = ("tasks_spawned", "tasks_executed", "raw_edges", "war_edges",
            "waw_edges", "renames", "in_place_reuses", "lockfree_cas_retries",
            "steals", "steal_attempts", "idle_sleeps", "idle_ns",
            "locality_hits", "locality_misses", "chained_executions",
            "pool_hits", "pool_refills", "pool_slabs", "nested_throttled",
            "foreign_throttled", "main_blocked_on_window",
            "main_blocked_on_memory", "rename_bytes_peak")
    s = dict.fromkeys(keys, 0)
    s.update(over)
    return s


def raw_run(n_iters, wall=0.1):
    """A driver result with `n_iters` iterations of walls wall, 2*wall, ..."""
    iters = [[wall * (i + 1), 0.5 * wall, 0.5 * wall, 0.5 * wall, 0.0, True]
             for i in range(n_iters)]
    phase = {"window_s": 1.0, "iters": iters,
             "stats": stats(tasks_spawned=8, tasks_executed=8, raw_edges=6,
                            renames=2, in_place_reuses=6, steals=1,
                            steal_attempts=4),
             "worker_executed": [2, 6]}
    return {"threads": 2, "tasks_per_iter": 4, "flops_per_iter": 0,
            "copy_bytes_per_iter": 0, "blas_block": 0,
            "setup_s": [3e-5, 1e-5, 2e-5], "ctor_s": [1e-5, 2e-5, 3e-5],
            "peak_rss_kb": 2048, "untraced": phase, "traced": phase,
            "baselines": {}, "attempted": n_iters, "failed": 0}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 90), 90)
        self.assertEqual(metrics.percentile(xs, 10), 10)
        self.assertEqual(metrics.percentile([5], 99), 5)
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 2, 3]), 2.5)

    def test_tail_has_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        for n in (20, 100, 137, 1000, 4321):
            p = metrics.tail_percentile(n)
            self.assertGreaterEqual(metrics.beyond(n, p), metrics.MIN_BEYOND)

    def test_end_to_end(self):
        _, detail = metrics.end_to_end(raw_run(19))
        self.assertNotIn("iter_s_tail", detail)
        out, detail = metrics.end_to_end(raw_run(100))
        # Fast decile: the 10th of walls 0.1, 0.2, ..., 10.0.
        self.assertAlmostEqual(out["tasks_per_s"]["value"], 4 / 1.0)
        self.assertEqual(out["tasks_per_s"]["samples"], 100)
        self.assertAlmostEqual(detail["iter_s_p90"]["value"], 9.0)
        self.assertEqual(detail["iter_s_tail"]["percentile"], 90.0)
        self.assertAlmostEqual(out["setup_s"]["value"], 2e-5)
        self.assertAlmostEqual(out["peak_rss_mb"]["value"], 2.0)


class Ratios(unittest.TestCase):
    def test_ratio_keeps_its_base(self):
        r = metrics.ratio(3, 4)
        self.assertEqual((r["value"], r["num"], r["den"]), (0.75, 3, 4))
        self.assertEqual(metrics.ratio(5, 0)["value"], 0.0)

    def test_every_reported_ratio_has_a_base(self):
        out = metrics.per_layer(raw_run(3), [], [])
        for name, m in out.items():
            if m["unit"] in ("ratio", "1/task", "1/ktask"):
                has_base = "den" in m or any(k.startswith("base_")
                                             for k in m)
                self.assertTrue(has_base, name)
        for name in ("runtime.submit_ns_per_task", "blas.kernel_gflops"):
            self.assertIn("den", out[name])
        self.assertEqual(out["dep.in_place_ratio"]["den"], 8)
        self.assertEqual(out["sched.steal_success_ratio"]["num"], 1)
        self.assertAlmostEqual(out["sched.worker_imbalance"]["value"], 1.5)


class SelfTime(unittest.TestCase):
    def test_covered_merges_and_clips(self):
        self.assertEqual(metrics.covered(0, 30, [(0, 10), (5, 20)]), 20)
        self.assertEqual(metrics.covered(10, 20, [(0, 15), (18, 40)]), 7)
        self.assertEqual(metrics.covered(0, 10, []), 0)
        self.assertEqual(metrics.covered(0, 10, [(20, 30)]), 0)

    def tree(self):
        it = Span("iteration", "iteration", None, 0, 100)
        sub = Span("runtime.submit", "runtime", None, 0, 60)
        drain = Span("runtime.drain", "runtime", None, 60, 100)
        blas = Span("blas.gemm", "blas", None, 20, 30)
        bench = [(0, it), (0, sub), (0, drain), (1, blas)]
        on_main = Span("sgemm_t", "task", 0, 70, 90, is_task=True)
        on_worker = Span("sgemm_t", "task", 3, 10, 50, is_task=True)
        other = Span("get_block", "hyper", 2, 15, 35, is_task=True)
        tasks = [on_main, on_worker, other]
        metrics.map_threads(bench, tasks)
        metrics.build_tree([s for _, s in bench] + tasks)
        return it, sub, drain, blas, on_main, on_worker

    def test_parents(self):
        it, sub, drain, blas, on_main, on_worker = self.tree()
        self.assertEqual(blas.worker, 3)  # enclosed by worker 3's body only
        self.assertIs(sub.parent, it)
        self.assertIs(drain.parent, it)
        self.assertIs(on_main.parent, drain)   # ran on main during the drain
        self.assertIs(on_worker.parent, it)    # no span on its own worker
        self.assertIs(blas.parent, on_worker)

    def test_children_are_subtracted(self):
        it, sub, drain, blas, on_main, on_worker = self.tree()
        self.assertEqual(metrics.self_time(drain), 40 - 20)
        self.assertEqual(metrics.self_time(sub), 60)
        self.assertEqual(metrics.self_time(on_worker), 40 - 10)
        self.assertEqual(metrics.self_time(blas), 10)
        # The iteration is covered by submit + drain (+ the worker body).
        self.assertEqual(metrics.self_time(it), 0)

    def test_dispatch_gaps_stay_within_an_iteration(self):
        it = Span("iteration", "iteration", 0, 0, 100)
        a = Span("t", "task", 1, 10, 20, is_task=True)
        b = Span("t", "task", 1, 25, 30, is_task=True)
        c = Span("t", "task", 1, 120, 130, is_task=True)  # after the iteration
        self.assertEqual(metrics.dispatch_gaps([a, b, c], [it]), [5])


class Declared(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads(BENCHMARK.read_text())
        e2e, _ = metrics.end_to_end(raw_run(100))
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            self.assertEqual(e2e[m["name"]]["unit"], m["unit"])
        layers = metrics.per_layer(raw_run(3), [], [])
        self.assertEqual(set(layers), {m["name"] for m in spec["per_layer"]})
        for m in spec["per_layer"]:
            self.assertEqual(layers[m["name"]]["unit"], m["unit"], m["name"])


if __name__ == "__main__":
    unittest.main()
