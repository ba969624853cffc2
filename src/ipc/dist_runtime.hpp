// The multi-process dependency manager (ROADMAP item 4): run a generated
// dependency pattern across N rank processes, each owning a hash-shard of
// the datum space, over one POSIX shared-memory segment.
//
// Model. The datum space is the pattern image's cells; datum (f, p) is
// owned by rank hash(f, p) % nprocs, and task (t, p) executes on the owner
// of the cell it produces — so every write to a datum lands in one process
// and that process's local DependencyAnalyzer owns the datum's version
// chain outright (the dependency manager is *sharded by datum hash*, not
// replicated). Rank 0 doubles as the coordinator: it walks the global
// (t, p) submission order and streams Submit/SubmitStep messages to the
// owning ranks over per-process-pair SPSC rings (ipc/msg_ring.hpp);
// executed tasks answer with Retire messages that drive the coordinator's
// global accounting.
//
// Data transfer reuses the copy-in/copy-back discipline: a task's produced
// value is copied from its (possibly renamed) resolved storage into an
// immutable per-task slot in the segment at the end of the task body
// ("copy-back" = publish, with a release-stored ready flag), and a consumer
// rank copies a remote input from the slot into a private per-(t, p)
// staging cell before spawning the reader ("copy-in" = fetch). Within a
// rank, dependencies flow through the rank's own analyzer exactly as in
// single-process runs — renaming, version chains, lock-free publication and
// the Sec. III scheduler all apply unchanged per shard.
//
// Progress. Every wait (a remote ready flag, a full ring, the coordinator's
// retire count) pumps Runtime::help_one(), so each rank keeps executing its
// own ready tasks while it waits; dependencies only ever reach one timestep
// back, which gives an inductive progress guarantee even at one thread per
// rank. The coordinator additionally polls child liveness (a dead rank can
// never complete the run, so it kills the group and aborts instead of
// hanging) and an overall deadline, mirrored by an abort flag in the
// segment header that the children watch.
//
// Scope. Address-mode lowering, Flat and NestedSteps submission shapes.
// Region mode and the commuting accumulator side channel stay
// single-process (the conformance sweep covers them there).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "patterns/driver.hpp"

namespace smpss::ipc {

/// One rank's contribution to the cross-process accounting: the per-stream
/// accounting story extended across processes — rank rows must sum to the
/// global totals the coordinator counted via Retire messages.
struct DistRankStats {
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t renames = 0;
  std::uint64_t rename_bytes = 0;
  std::uint64_t publishes = 0;     ///< slot copy-backs (every owned task)
  std::uint64_t fetches = 0;       ///< remote-input slot copy-ins
  std::uint64_t retires_sent = 0;  ///< Retire messages to the coordinator
};

struct DistResult {
  patterns::PatternImage image;      ///< assembled from every rank's shard
  std::vector<DistRankStats> ranks;  ///< index = rank
  std::uint64_t total_tasks = 0;
  std::uint64_t retires_received = 0;  ///< coordinator-side Retire count
  /// Global true-edge multiset (producer gseq, consumer gseq), sorted; the
  /// union of every rank's recorded + self-recorded edges. Filled only when
  /// cfg.record_graph (which requires Flat shape and num_threads == 1 so
  /// the per-rank recording window is deterministic).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  bool clean_children = true;  ///< every child rank _exit(0)ed
};

/// Owner rank of datum (f, p) — exposed so tests can reason about the
/// shard split (e.g. find a spec that actually crosses process boundaries).
unsigned datum_owner(long f, long p, unsigned nprocs) noexcept;

/// Run `spec` across `nprocs` processes (rank 0 = the calling process;
/// nprocs - 1 forked children). The caller must be effectively
/// single-threaded (no live Runtime) — fork discipline. `opt.cfg` is the
/// per-rank runtime configuration (procs is ignored here; the pattern-level
/// run_pattern() is the dispatcher that reads it).
DistResult run_pattern_dist(const patterns::PatternSpec& spec,
                            const patterns::RunOptions& opt, unsigned nprocs);

}  // namespace smpss::ipc
