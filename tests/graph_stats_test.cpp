// Graph-structure analysis: critical path, width, roots/leaves, per-type
// counts, predecessor queries — on hand-built graphs and runtime-recorded
// ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph_recorder.hpp"
#include "graph/graph_stats.hpp"
#include "runtime/runtime.hpp"

namespace smpss {
namespace {

GraphRecorder make_chain(int n) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= n; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  for (int i = 1; i < n; ++i)
    rec.record_edge(static_cast<std::uint64_t>(i),
                    static_cast<std::uint64_t>(i + 1), EdgeKind::True);
  return rec;
}

TEST(GraphStats, Chain) {
  auto rec = make_chain(10);
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.nodes, 10u);
  EXPECT_EQ(s.edges, 9u);
  EXPECT_EQ(s.roots, 1u);
  EXPECT_EQ(s.leaves, 1u);
  EXPECT_EQ(s.critical_path, 10u);
  EXPECT_EQ(s.max_width, 1u);
  EXPECT_DOUBLE_EQ(s.avg_parallelism, 1.0);
}

TEST(GraphStats, IndependentTasks) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= 8; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.critical_path, 1u);
  EXPECT_EQ(s.max_width, 8u);
  EXPECT_EQ(s.roots, 8u);
  EXPECT_DOUBLE_EQ(s.avg_parallelism, 8.0);
}

TEST(GraphStats, Diamond) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= 4; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  rec.record_edge(1, 2, EdgeKind::True);
  rec.record_edge(1, 3, EdgeKind::True);
  rec.record_edge(2, 4, EdgeKind::True);
  rec.record_edge(3, 4, EdgeKind::True);
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.critical_path, 3u);
  EXPECT_EQ(s.max_width, 2u);
  EXPECT_EQ(s.roots, 1u);
  EXPECT_EQ(s.leaves, 1u);
}

TEST(GraphStats, PerTypeCounts) {
  GraphRecorder rec;
  rec.set_enabled(true);
  rec.record_node(1, 0);
  rec.record_node(2, 2);
  rec.record_node(3, 2);
  auto s = analyze_graph(rec);
  ASSERT_EQ(s.per_type_counts.size(), 3u);
  EXPECT_EQ(s.per_type_counts[0], 1u);
  EXPECT_EQ(s.per_type_counts[1], 0u);
  EXPECT_EQ(s.per_type_counts[2], 2u);
}

TEST(GraphStats, EmptyGraph) {
  GraphRecorder rec;
  auto s = analyze_graph(rec);
  EXPECT_EQ(s.nodes, 0u);
  EXPECT_EQ(s.critical_path, 0u);
}

TEST(GraphStats, PredecessorsAndAncestors) {
  GraphRecorder rec;
  rec.set_enabled(true);
  for (int i = 1; i <= 5; ++i) rec.record_node(static_cast<std::uint64_t>(i), 0);
  rec.record_edge(1, 3, EdgeKind::True);
  rec.record_edge(2, 3, EdgeKind::True);
  rec.record_edge(3, 5, EdgeKind::True);
  rec.record_edge(4, 5, EdgeKind::True);
  EXPECT_EQ(predecessors_of(rec, 5), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(ancestor_closure(rec, 5), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(predecessors_of(rec, 1).empty());
}

TEST(GraphStats, RecordedRuntimeGraphMatchesSpawnStructure) {
  Config c;
  // One thread: the full static graph is recorded (with workers racing,
  // completed producers leave no edge).
  c.num_threads = 1;
  c.record_graph = true;
  Runtime rt(c);
  // Two independent chains of length 5.
  int x = 0, y = 0;
  for (int i = 0; i < 5; ++i) rt.spawn([](int* p) { *p += 1; }, inout(&x));
  for (int i = 0; i < 5; ++i) rt.spawn([](int* p) { *p += 1; }, inout(&y));
  rt.barrier();
  auto s = analyze_graph(rt.graph_recorder());
  EXPECT_EQ(s.nodes, 10u);
  EXPECT_EQ(s.edges, 8u);
  EXPECT_EQ(s.critical_path, 5u);
  EXPECT_EQ(s.max_width, 2u);
  EXPECT_EQ(s.roots, 2u);
}

// --- per-worker scheduling counters (StatsSnapshot::workers) -----------------

std::size_t occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + 1))
    ++n;
  return n;
}

TEST(RuntimeWorkerStats, SingleThreadChainRowsAreExact) {
  Config c;
  c.num_threads = 1;
  // chain_depth = 0 forces every released successor through the ready lists,
  // where placement stamps its preference (chained tasks bypass
  // enqueue entirely and carry no preference).
  c.chain_depth = 0;
  Runtime rt(c);
  constexpr int kN = 100;
  long x = 0;
  for (int i = 0; i < kN; ++i) rt.spawn([](long* p) { *p += 1; }, inout(&x));
  rt.barrier();
  EXPECT_EQ(x, static_cast<long>(kN));

  auto s = rt.stats();
  ASSERT_EQ(s.workers.size(), 1u);
  const auto& w = s.workers[0];
  EXPECT_EQ(w.executed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(w.steals, 0u);
  EXPECT_EQ(w.chained, 0u);
  // The chain head was spawned from the main thread (no preference, counted
  // neither way); every other task was released by worker 0 and executed by
  // worker 0.
  EXPECT_EQ(w.locality_hits, static_cast<std::uint64_t>(kN) - 1);
  EXPECT_EQ(w.locality_misses, 0u);
  // Aggregates are exactly the row sums (one row here).
  EXPECT_EQ(s.tasks_executed, w.executed);
  EXPECT_EQ(s.steals, w.steals);
  EXPECT_EQ(s.locality_hits, w.locality_hits);
  EXPECT_EQ(s.locality_misses, w.locality_misses);
  EXPECT_EQ(s.idle_ns, w.idle_ns);
  EXPECT_EQ(s.idle_sleeps, w.idle_sleeps);
  EXPECT_EQ(s.acquired_high, w.acquired_high);
  EXPECT_EQ(s.acquired_own, w.acquired_own);
  EXPECT_EQ(s.acquired_main, w.acquired_main);

  // The JSON exporter carries the aggregates and one row per worker; with
  // one worker and a quiesced runtime the locality counts are exact.
  const std::string json = rt.stats_json();
  EXPECT_NE(json.find("\"workers\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"idle_ns\":"), std::string::npos) << json;
  const std::string hits =
      "\"locality_hits\":" + std::to_string(kN - 1) + ",";
  EXPECT_EQ(occurrences(json, hits), 2u) << json;  // aggregate + row
  EXPECT_EQ(occurrences(json, "\"locality_misses\":0,"), 2u) << json;
}

TEST(RuntimeWorkerStats, AggregatesEqualRowSumsAcrossWorkers) {
  Config c;
  c.num_threads = 4;
  Runtime rt(c);
  std::vector<long> sinks(64, 0);
  long chain = 0;
  for (int step = 0; step < 8; ++step) {
    rt.spawn([](long* p) { *p += 1; }, inout(&chain));
    for (auto& v : sinks) rt.spawn([](long* p) { *p += 1; }, inout(&v));
  }
  rt.barrier();
  auto s = rt.stats();
  ASSERT_EQ(s.workers.size(), 4u);
  WorkerStatsRow sum;
  for (const auto& w : s.workers) {
    sum.executed += w.executed;
    sum.steals += w.steals;
    sum.steal_attempts += w.steal_attempts;
    sum.acquired_high += w.acquired_high;
    sum.acquired_own += w.acquired_own;
    sum.acquired_main += w.acquired_main;
    sum.idle_sleeps += w.idle_sleeps;
    sum.idle_ns += w.idle_ns;
    sum.locality_hits += w.locality_hits;
    sum.locality_misses += w.locality_misses;
    sum.chained += w.chained;
  }
  EXPECT_EQ(s.tasks_executed, sum.executed);
  EXPECT_EQ(s.tasks_executed, 8u * 65u);
  EXPECT_EQ(s.steals, sum.steals);
  EXPECT_EQ(s.steal_attempts, sum.steal_attempts);
  EXPECT_EQ(s.acquired_high, sum.acquired_high);
  EXPECT_EQ(s.acquired_own, sum.acquired_own);
  EXPECT_EQ(s.acquired_main, sum.acquired_main);
  EXPECT_EQ(s.idle_sleeps, sum.idle_sleeps);
  EXPECT_EQ(s.idle_ns, sum.idle_ns);
  EXPECT_EQ(s.locality_hits, sum.locality_hits);
  EXPECT_EQ(s.locality_misses, sum.locality_misses);
  EXPECT_EQ(s.chained_executions, sum.chained);
}

}  // namespace
}  // namespace smpss
