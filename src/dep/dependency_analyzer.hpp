// Address-mode dependency analysis with renaming (paper Sec. II).
//
// "The runtime takes the memory address, size and directionality of each
// parameter at each task invocation and uses them to analyze the
// dependencies between them." Data are keyed by their base address; each
// datum carries a chain of versions (see dep/version.hpp). With renaming
// enabled (the paper's default) only true RAW dependencies produce edges;
// WAR/WAW hazards are absorbed by allocating fresh storage. With renaming
// disabled (an ablation the paper argues against) anti- and output-
// dependency edges are inserted instead.
//
// Concurrency: one pipeline for every configuration. Submission takes no
// mutex; any number of submitters may call in concurrently:
//
//   * the entry table is a fixed array of CAS-prepend bucket chains
//     (entries are address-stable and only reclaimed at flush, which
//     requires quiescence);
//   * a reader pins the chain head speculatively — register first, then
//     validate `latest` is unchanged, retrying on a lost race;
//   * a writer publishes its new version by CAS on `DataEntry::latest`
//     *before* deciding its storage (in-place reuse or renaming; with
//     renaming off, output/anti edges over the user's storage); the CAS
//     transfers the superseded version's latest-token to the writer, whose
//     subsequent hazard probes (readers_pending / is_produced) are paired
//     seq_cst with the reader's registration protocol so a just-registered
//     reader is never missed. Readers of the new version spin past the
//     storage-unresolved window (Version::storage_wait).
//
//   Version reclamation rides on the slab pool's type-stable blocks and
//   generation counters: see the scheme comment atop dep/version.hpp.
//
// The one exception is the no-renaming ablation: its WAR edges come from
// per-version reader task lists, which are plain vectors. With concurrent
// submitters the Runtime therefore serializes each task's whole analysis on
// one mutex (Runtime::analyze); a single submitter needs nothing.
//
// Counters are striped by submitting thread (no shared hot line) and summed
// on snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cache.hpp"
#include "common/slab_pool.hpp"
#include "dep/access.hpp"
#include "dep/renaming.hpp"
#include "dep/version.hpp"
#include "graph/graph_recorder.hpp"
#include "graph/task.hpp"

namespace smpss {

struct AccessGroup;  // dep/access_group.hpp

class DependencyAnalyzer {
 public:
  struct Counters {
    std::uint64_t accesses = 0;
    std::uint64_t raw_edges = 0;
    std::uint64_t war_edges = 0;      // only with renaming disabled
    std::uint64_t waw_edges = 0;      // only with renaming disabled
    std::uint64_t in_place_reuses = 0;
    std::uint64_t copy_ins = 0;       // inout renames + extent merges (copies)
    std::uint64_t copy_in_bytes = 0;
    std::uint64_t copyback_bytes = 0; // barrier/wait_on realignment copies
    std::uint64_t tracked_objects = 0;
    std::uint64_t cas_retries = 0;    // lost publication/pin races (lock-free)
    std::uint64_t groups_opened = 0;  // commuting groups created
    std::uint64_t group_joins = 0;    // member tasks joined onto open groups
    std::uint64_t groups_closed = 0;  // groups sealed (non-matching access,
                                      // size/op mismatch, or barrier)
    std::uint64_t commute_edges = 0;  // member → group-close completion edges

    Counters& operator+=(const Counters& o) noexcept {
      accesses += o.accesses;
      raw_edges += o.raw_edges;
      war_edges += o.war_edges;
      waw_edges += o.waw_edges;
      in_place_reuses += o.in_place_reuses;
      copy_ins += o.copy_ins;
      copy_in_bytes += o.copy_in_bytes;
      copyback_bytes += o.copyback_bytes;
      tracked_objects += o.tracked_objects;
      cas_retries += o.cas_retries;
      groups_opened += o.groups_opened;
      group_joins += o.group_joins;
      groups_closed += o.groups_closed;
      commute_edges += o.commute_edges;
      return *this;
    }
  };

  /// `owner_slots`/`cache_blocks` size the type-stable version pool (same
  /// slot scheme as the TaskArena: one slot per submitting thread).
  DependencyAnalyzer(RenamePool& pool, bool renaming_enabled,
                     GraphRecorder* recorder, unsigned owner_slots,
                     unsigned cache_blocks);

  DependencyAnalyzer(const DependencyAnalyzer&) = delete;
  DependencyAnalyzer& operator=(const DependencyAnalyzer&) = delete;

  ~DependencyAnalyzer();

  // --- commuting groups (Dir::Commutative / Dir::Concurrent) ----------------
  // A run of consecutive matching commutative/concurrent accesses to one
  // datum forms an AccessGroup: one synthetic "close" TaskNode stands in as
  // the version producer, members take a Member completion edge to it and no
  // edges among themselves. See dep/access_group.hpp for the full scheme.

  /// The Runtime installs a factory that allocates a group-close TaskNode
  /// (arena slot, seq number, recorder entry). Must be set before the first
  /// commutative/concurrent access is processed.
  void set_close_factory(std::function<TaskNode*(unsigned slot)> f) {
    close_factory_ = std::move(f);
  }

  /// Seal every still-open group (barrier / wait_on: later accesses must
  /// order after the whole group). Close nodes whose membership is already
  /// complete land on the pending-close stack.
  void close_open_groups();

  /// True if some group-close node became ready during analysis on any
  /// thread and awaits Runtime::retire_close. Cheap enough for the submit
  /// fast path.
  bool has_pending_closes() const noexcept {
    return pending_closes_.load(std::memory_order_relaxed) != nullptr;
  }

  /// Drain the ready group-close stack (linked through queue_next). The
  /// Runtime retires each node; the list is snapshot-and-detached, so
  /// concurrent pushes land on the next drain.
  TaskNode* take_pending_closes() noexcept {
    return pending_closes_.exchange(nullptr, std::memory_order_acq_rel);
  }

  // --- analysis -------------------------------------------------------------
  // Callable concurrently from any submitter, no locks held (except the
  // no-renaming ablation, see file comment).

  /// Analyze one directional parameter of `task`: wire dependency edges,
  /// create/supersede versions, decide renaming. Returns the storage the
  /// task body must use for this parameter.
  void* process(TaskNode* task, const AccessDesc& access);

  /// Barrier-time realignment: copy every renamed latest version back to its
  /// user storage and drop all tracking state. Requires all tasks complete.
  void flush_all();

  /// Lookup of an address's entry; nullptr when it was never tracked.
  /// Lock-free (prepend-only chains).
  DataEntry* find(const void* addr);

  /// wait_on step: pin the latest version (forcing concurrent writers to
  /// rename, so the copy source stays stable), and copy it back into user
  /// storage if it is produced and user storage is quiescent. No state
  /// change; the chain stays intact so later tasks keep their versions.
  enum class CopyBack { kUntracked, kNotReady, kDone };
  CopyBack try_copy_back(const void* addr);

  /// True if this address is currently tracked (used to diagnose mixing of
  /// address-mode and region-mode access on one array).
  bool tracks(const void* addr) { return find(addr) != nullptr; }

  // --- introspection --------------------------------------------------------

  /// Sum the per-thread counter stripes. Safe concurrently with submitters.
  Counters counters_snapshot() const;

 private:
  /// Per-submitting-thread counter stripe: plain atomic bumps, no shared
  /// cache line between concurrent submitters.
  struct alignas(kCacheLineSize) CounterStripe {
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> raw_edges{0};
    std::atomic<std::uint64_t> war_edges{0};
    std::atomic<std::uint64_t> waw_edges{0};
    std::atomic<std::uint64_t> in_place_reuses{0};
    std::atomic<std::uint64_t> copy_ins{0};
    std::atomic<std::uint64_t> copy_in_bytes{0};
    std::atomic<std::uint64_t> copyback_bytes{0};
    std::atomic<std::uint64_t> tracked_objects{0};
    std::atomic<std::uint64_t> cas_retries{0};
    std::atomic<std::uint64_t> groups_opened{0};
    std::atomic<std::uint64_t> group_joins{0};
    std::atomic<std::uint64_t> groups_closed{0};
    std::atomic<std::uint64_t> commute_edges{0};
  };
  static constexpr unsigned kStripes = 16;  // power of two

  /// Entry-table layout: 64 × 64 buckets. Shard and bucket indices take
  /// disjoint bit ranges of one Fibonacci hash over the address (low
  /// alignment bits dropped), so neighbouring allocations spread out.
  static constexpr unsigned kShards = 64;           // power of two
  static constexpr unsigned kBucketsPerShard = 64;  // power of two
  static constexpr unsigned kBuckets = kShards * kBucketsPerShard;

  static unsigned bucket_of(const void* addr) noexcept {
    auto p = reinterpret_cast<std::uintptr_t>(addr) >> 4;
    const auto h = static_cast<std::uint64_t>(p) * 0x9E3779B97F4A7C15ull;
    const auto shard = static_cast<unsigned>(h >> 32) & (kShards - 1);
    return shard * kBucketsPerShard +
           (static_cast<unsigned>(h >> 20) & (kBucketsPerShard - 1));
  }

  CounterStripe& stripe_for(std::uint32_t slot) noexcept {
    return stripes_[slot & (kStripes - 1)];
  }

  static void fetch_max(std::atomic<std::size_t>& a, std::size_t v) noexcept {
    std::size_t cur = a.load(std::memory_order_relaxed);
    while (cur < v && !a.compare_exchange_weak(cur, v,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
    }
  }

  DataEntry& entry_for(CounterStripe& st, unsigned slot, void* addr,
                       std::size_t bytes);
  void add_edge(CounterStripe& st, TaskNode* pred, TaskNode* succ,
                EdgeKind kind);
  /// Speculatively pin the chain head as a reader: register (count + ref)
  /// first, then validate `latest` is unchanged; on a lost race the
  /// registration is aborted (net-zero even on a recycled block) and the
  /// pin retries against the new head.
  Version* pin_latest(CounterStripe& st, DataEntry& e);
  void* process_read(CounterStripe& st, TaskNode* task, DataEntry& e,
                     std::size_t bytes);
  /// Publish-first write: CAS the new version onto the chain head, then
  /// decide its storage (see file comment). `group` is set when `task` is
  /// the close node of a commuting group being opened.
  void* process_write(CounterStripe& st, unsigned slot, TaskNode* task,
                      DataEntry& e, std::size_t bytes, bool also_reads,
                      AccessGroup* group = nullptr);
  /// Commutative/concurrent access: join the open group at the chain head if
  /// it matches, otherwise open a fresh group (sealing whatever was there).
  void* process_commuting(CounterStripe& st, unsigned slot, TaskNode* task,
                          DataEntry& e, const AccessDesc& access);
  /// Wire `task` into open group `g` (caller holds g->mu, head verified).
  void join_member(CounterStripe& st, TaskNode* task, AccessGroup* g);
  /// Seal `g` if still open; the winner drops the close node's open-guard
  /// and, if membership is already complete, pushes it on pending_closes_.
  void seal_group(CounterStripe& st, AccessGroup* g);
  void push_pending_close(TaskNode* close) noexcept;
  void register_open_group(AccessGroup* g);

  RenamePool& pool_;
  bool renaming_;
  GraphRecorder* recorder_;
  unsigned workers_;  ///< sizes per-worker reduction privates (owner_slots)
  std::unique_ptr<std::atomic<DataEntry*>[]> buckets_;  ///< kBuckets chains
  std::unique_ptr<CounterStripe[]> stripes_;
  SlabPool vpool_;  ///< type-stable Version blocks (see dep/version.hpp)

  std::function<TaskNode*(unsigned slot)> close_factory_;
  /// Ready group-close nodes (Treiber stack through TaskNode::queue_next),
  /// awaiting Runtime::retire_close. Per-analyzer so concurrently live
  /// runtimes never retire each other's nodes.
  std::atomic<TaskNode*> pending_closes_{nullptr};
  /// Registry of groups that may still be open, so barriers can seal them.
  /// Holds one group ref per entry; sealed groups are pruned lazily.
  std::mutex groups_mu_;
  std::vector<AccessGroup*> open_groups_;
};

}  // namespace smpss
