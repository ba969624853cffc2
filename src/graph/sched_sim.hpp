// List-scheduling simulation over a recorded task graph: given P processors
// and per-type task costs, compute the makespan an ideal greedy scheduler
// would achieve. This turns a recorded graph into the *potential*
// parallelism number the paper reasons about (e.g. why a 6x6 Cholesky graph
// with a 16-task critical path cannot use 32 cores, or why big blocks in
// Fig. 8 "have limited parallelism").
//
// simulate_policy_order replays the runtime's dispatch by driving the real
// ReadyLists<> template (sched/ready_lists.hpp) over lightweight SimNodes
// instead of duplicating its placement and lookup logic.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph_recorder.hpp"
#include "sched/ready_lists.hpp"

namespace smpss {

struct SimResult {
  double makespan = 0.0;       ///< simulated completion time
  double total_work = 0.0;     ///< sum of task costs
  double speedup = 0.0;        ///< total_work / makespan
  double critical_path = 0.0;  ///< weighted longest chain (P = infinity)
};

/// Simulate greedy list scheduling of `rec` on `processors` identical
/// processors. `cost_of_type[t]` is the execution cost of tasks of type t
/// (missing entries default to 1.0). Ready tasks start whenever a processor
/// is free, picked in invocation (seq) order: the classic Graham list
/// scheduler.
SimResult simulate_schedule(const GraphRecorder& rec, unsigned processors,
                            const std::vector<double>& cost_of_type = {});

/// Deterministic single-worker replay of the runtime's dispatch over a
/// recorded graph, driving the real ReadyLists<> code (enqueue_creation /
/// enqueue_released / enqueue_batch / acquire / preempt_chain, including the
/// chain_depth bound) in scheduler mode `mode`. Returns task seqs in
/// execution order.
///
/// The replay models the regime where it is exact: a single worker and a
/// task window larger than the graph, so every submission precedes every
/// execution (and the recorded edges are the precise pending counts — an
/// edge is recorded iff the dependence really raised the successor's
/// pending count). Successor walks follow the runtime's reverse-of-record
/// order (the Treiber stack). `high_priority_types[type_id] != 0` marks
/// user high-priority task types.
std::vector<std::uint64_t> simulate_policy_order(
    const GraphRecorder& rec, SchedulerMode mode, unsigned chain_depth,
    const std::vector<std::uint8_t>& high_priority_types = {});

}  // namespace smpss
