#include "graph/sched_sim.hpp"

#include <algorithm>
#include <memory>
#include <queue>
#include <utility>
#include <unordered_map>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace smpss {

namespace {

/// The replay's node type for ReadyLists<T>: the intrusive link and the
/// placement fields TaskNode carries, plus the replay's own index.
struct SimNode {
  SimNode* queue_next = nullptr;
  std::uint64_t seq = 0;
  bool high_priority = false;
  std::uint32_t pref_tid = ~0u;
  std::size_t idx = 0;  ///< position in the nodes() vector
};

}  // namespace

SimResult simulate_schedule(const GraphRecorder& rec, unsigned processors,
                            const std::vector<double>& cost_of_type) {
  SimResult out;
  const auto& nodes = rec.nodes();
  if (nodes.empty() || processors == 0) return out;

  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    index_of.emplace(nodes[i].seq, i);

  std::vector<std::vector<std::size_t>> succs(nodes.size());
  std::vector<std::size_t> indeg(nodes.size(), 0);
  for (const auto& e : rec.edges()) {
    auto f = index_of.find(e.from);
    auto t = index_of.find(e.to);
    if (f == index_of.end() || t == index_of.end()) continue;
    succs[f->second].push_back(t->second);
    ++indeg[t->second];
  }

  auto cost = [&](std::size_t i) {
    std::uint32_t ty = nodes[i].type_id;
    if (ty < cost_of_type.size() && cost_of_type[ty] > 0.0)
      return cost_of_type[ty];
    return 1.0;
  };

  for (std::size_t i = 0; i < nodes.size(); ++i) out.total_work += cost(i);

  // Weighted critical path (bottom-up over a topological order).
  std::vector<double> finish(nodes.size(), 0.0);
  std::vector<std::size_t> order;
  {
    order.reserve(nodes.size());
    std::vector<std::size_t> d = indeg;
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (d[i] == 0) frontier.push_back(i);
    while (!frontier.empty()) {
      std::size_t u = frontier.back();
      frontier.pop_back();
      order.push_back(u);
      for (std::size_t v : succs[u])
        if (--d[v] == 0) frontier.push_back(v);
    }
    SMPSS_CHECK(order.size() == nodes.size(), "recorded graph has a cycle");
    for (std::size_t u : order) {
      finish[u] += cost(u);
      for (std::size_t v : succs[u])
        finish[v] = std::max(finish[v], finish[u]);
      out.critical_path = std::max(out.critical_path, finish[u]);
    }
  }

  // Ready tasks ordered by invocation: (seq, index) keys in a min-heap.
  using Key = std::pair<std::uint64_t, std::size_t>;
  auto key_of = [&](std::size_t i) { return Key{nodes[i].seq, i}; };

  // Greedy list scheduling: the lowest-keyed ready task starts whenever a
  // processor is free; the earliest-finishing event drives time forward.
  std::vector<std::size_t> d = indeg;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ready;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (d[i] == 0) ready.push(key_of(i));

  // Running tasks as (finish_time, node) min-heap.
  using Running = std::pair<double, std::size_t>;
  std::priority_queue<Running, std::vector<Running>, std::greater<Running>>
      running;

  double now = 0.0;
  unsigned busy = 0;
  std::size_t done = 0;
  while (done < nodes.size()) {
    while (!ready.empty() && busy < processors) {
      std::size_t u = ready.top().second;
      ready.pop();
      running.emplace(now + cost(u), u);
      ++busy;
    }
    SMPSS_CHECK(!running.empty(), "scheduler stalled: cyclic graph?");
    auto [t, u] = running.top();
    running.pop();
    now = t;
    --busy;
    ++done;
    for (std::size_t v : succs[u])
      if (--d[v] == 0) ready.push(key_of(v));
  }
  out.makespan = now;
  out.speedup = out.makespan > 0.0 ? out.total_work / out.makespan : 0.0;
  return out;
}

std::vector<std::uint64_t> simulate_policy_order(
    const GraphRecorder& rec, SchedulerMode mode, unsigned chain_depth,
    const std::vector<std::uint8_t>& high_priority_types) {
  std::vector<std::uint64_t> out;
  const auto& nodes = rec.nodes();
  if (nodes.empty()) return out;

  // The replay is the single-worker regime by definition, so the steal
  // order never comes into play.
  ReadyLists<SimNode> lists(1, mode, StealOrder::CreationOrder);

  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    index_of.emplace(nodes[i].seq, i);

  auto sim = std::make_unique<SimNode[]>(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    sim[i].seq = nodes[i].seq;
    sim[i].idx = i;
    sim[i].high_priority = nodes[i].type_id < high_priority_types.size() &&
                           high_priority_types[nodes[i].type_id] != 0;
  }

  // Pending counts come from ALL recorded edges, duplicates included: the
  // dependency analyzer records an edge exactly when add_successor really
  // raised the successor's pending count, so the replay's release
  // arithmetic is the runtime's.
  std::vector<std::vector<std::size_t>> succs(nodes.size());
  std::vector<std::size_t> pending(nodes.size(), 0);
  for (const auto& e : rec.edges()) {
    auto f = index_of.find(e.from);
    auto t = index_of.find(e.to);
    if (f == index_of.end() || t == index_of.end()) continue;
    succs[f->second].push_back(t->second);
    ++pending[t->second];
  }

  // Phase 1 — submission in invocation order. In the modeled regime every
  // submit precedes every execution, so dependency-free tasks are enqueued
  // at creation from the main thread (worker slot 0, not a nested child).
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (pending[i] == 0) lists.enqueue_creation(&sim[i], 0, false);

  // Phase 2 — the worker loop: acquire, run, release successors in the
  // runtime's reverse-of-record order, chain through single releases up to
  // chain_depth unless a pending high-priority task preempts.
  Xoshiro256 rng(0x5eedu);
  AcquireSource src = AcquireSource::None;
  unsigned attempts = 0;
  out.reserve(nodes.size());
  std::vector<SimNode*> released;
  while (out.size() < nodes.size()) {
    SimNode* t = lists.acquire(0, rng, src, attempts);
    SMPSS_CHECK(t != nullptr,
                "policy replay stalled: recorded graph incomplete?");
    for (unsigned hops = 0; t != nullptr; ++hops) {
      out.push_back(t->seq);
      released.clear();
      const auto& ss = succs[t->idx];
      for (auto it = ss.rbegin(); it != ss.rend(); ++it)
        if (--pending[*it] == 0) released.push_back(&sim[*it]);
      SimNode* chain = nullptr;
      if (released.size() == 1) {
        SimNode* s = released[0];
        if (hops < chain_depth && !lists.preempt_chain(s))
          chain = s;
        else
          lists.enqueue_released(s, 0);
      } else if (released.size() > 1) {
        lists.enqueue_batch(released.data(), released.size(), 0);
      }
      t = chain;
    }
  }
  return out;
}

}  // namespace smpss
