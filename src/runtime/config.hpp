// Runtime configuration. Defaults follow the paper; every knob is also
// readable from the environment (the original SMPSs distribution was
// configured through CSS_* variables such as CSS_NUM_CPUS — we use the
// SMPSS_ prefix).
//
//   SMPSS_NUM_THREADS       total threads including the main thread
//   SMPSS_TASK_WINDOW       graph-size blocking condition (live tasks)
//   SMPSS_RENAME_MEMORY_MB  renamed-storage blocking condition
//   SMPSS_RENAMING          0/1 — disable/enable renaming
//   SMPSS_NESTED            0/1 — real nested tasks instead of inlining
//   SMPSS_CHAIN_DEPTH       max chained executions per acquire (0 = off)
//   SMPSS_POOL_CACHE        task-pool blocks cached per worker (0 = malloc)
//   SMPSS_SCHEDULER         distributed | centralized
//   SMPSS_STEAL_ORDER       creation | random
//   SMPSS_PIN_THREADS       0/1
//   SMPSS_TRACE             0/1 — record per-task timing events
//   SMPSS_RECORD_GRAPH      0/1 — record nodes/edges for DOT export
//   SMPSS_STREAMS           service-mode stream registry capacity
//   SMPSS_STATS_PERIOD_MS   periodic JSON stats exporter period (0 = off)
//   SMPSS_STATS_FILE        exporter destination ("" = stderr, appended)
//
// A malformed value (SMPSS_NUM_THREADS=3x, SMPSS_RENAMING=maybe,
// SMPSS_SCHEDULER=central) is rejected whole with one stderr line naming it;
// the default stays. So is an integer outside its setting's range
// (SMPSS_NUM_THREADS=0 or above 1024, SMPSS_TASK_WINDOW=-5, any value its
// field's type cannot hold). A set SMPSS_* name that is no setting
// (misspelled, or retired like SMPSS_DEP_LOCKFREE and SMPSS_SCHED_POLICY)
// gets one such line too; the test and bench variables (SMPSS_TEST_*,
// SMPSS_FUZZ_*, SMPSS_BENCH_SCALE) are legal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sched/ready_lists.hpp"

namespace smpss {

struct Config {
  /// Total threads, main thread included ("the runtime creates as many
  /// worker threads as necessary to fill out the rest of the cores").
  /// 0 means use all available cores.
  unsigned num_threads = 0;

  /// Graph-size blocking condition: when the number of live (not yet
  /// completed) tasks reaches this, the main thread behaves as a worker
  /// until it drops below `task_window_low`.
  std::size_t task_window = 8192;
  std::size_t task_window_low = 0;  ///< 0 means task_window/2

  /// Renamed-storage blocking condition, in bytes.
  std::size_t rename_memory_limit = std::size_t(512) << 20;

  /// Data renaming (paper default on; off reproduces a dependency-unaware
  /// WAR/WAW-edge runtime for the ablation benches).
  bool renaming = true;

  /// Nested task parallelism. Off (the paper-faithful default, Sec. VII.D)
  /// demotes a spawn from inside a task to a plain inline function call. On,
  /// any thread may submit real tasks: dependency analysis runs through the
  /// same lock-free version-chain pipeline (per-datum serialization by CAS,
  /// as in the later BSC runtimes that lifted this restriction; the
  /// no-renaming ablation serializes whole analyses on one mutex), tasks
  /// track their parent, and Runtime::taskwait() waits for the calling
  /// task's children while executing other ready tasks.
  bool nested_tasks = false;

  /// Retired knobs, kept as constants so existing readers (config echoes
  /// in reports) still compile; assigning any is a compile error. The
  /// dependency pipeline is always the lock-free one, over a fixed 64-shard
  /// entry-table layout (see dep/dependency_analyzer.hpp), and the scheduler
  /// is always the Sec. III ready lists (sched/ready_lists.hpp).
  static constexpr bool dep_lockfree = true;
  static constexpr unsigned dep_shards = 64;
  static constexpr SchedPolicyKind sched_policy = SchedPolicyKind::Paper;

  /// Immediate-successor chaining bound: when completing a task releases
  /// exactly one successor (and no high-priority task is pending), the
  /// worker runs it directly — no ready-list push/pop, no wakeup — up to
  /// this many times per acquire before returning to the normal lookup
  /// policy (which keeps stealing/high-priority latency bounded). 0 turns
  /// chaining off and reproduces the paper's pure list-driven dispatch.
  unsigned chain_depth = 16;

  /// Per-submitter-slot cache size (in blocks) of the pooled TaskNode /
  /// closure allocator; also its refill batch size. 0 disables pooling and
  /// puts plain new/delete back on the spawn/retire path (the microbench
  /// baseline).
  unsigned pool_cache = 64;

  /// The paper's two scheduler ablations (sched/ready_lists.hpp).
  SchedulerMode scheduler_mode = SchedulerMode::Distributed;
  StealOrder steal_order = StealOrder::CreationOrder;

  /// Record task nodes/edges for DOT export and graph statistics.
  bool record_graph = false;

  /// Record per-task execution events (timeline / Paraver export).
  bool tracing = false;

  /// Pin threads round-robin over the allowed CPUs.
  bool pin_threads = false;

  /// Failed acquire passes before a worker blocks on the idle gate.
  unsigned spin_acquires = 128;

  /// Service-mode stream registry capacity. StreamStates are registry-pinned
  /// for the Runtime's life (versions carry their rename accounts past
  /// stream close), so this bounds open_stream() calls, not concurrency.
  unsigned max_streams = 64;

  /// Period of the JSON stats exporter thread (one line per period with
  /// tasks/s, window occupancy, per-stream counters + latency percentiles).
  /// 0 disables the thread entirely.
  unsigned stats_period_ms = 0;

  /// Exporter destination, opened in append mode. Empty = stderr.
  std::string stats_path;

  /// Inert: the runtime never reads it. The runtime is one process with one
  /// dependency manager, as in the paper; this field is left over from a
  /// removed multi-process backend and stays only so that perfbench's
  /// config echo still compiles. Its environment variable is retired.
  unsigned procs = 1;

  /// Defaults overridden by SMPSS_* environment variables.
  static Config from_env();

  /// Clamp/derive dependent fields; called by the Runtime constructor.
  void normalize();
};

}  // namespace smpss
