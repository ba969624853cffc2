// Commuting access groups — the bookkeeping behind Dir::Commutative and
// Dir::Concurrent (see dep/access.hpp).
//
// Consecutive same-mode accesses to one datum form a *group*: its members
// run in any order (mutually exclusive for Commutative, fully concurrent
// into per-worker privates for Concurrent) instead of being chained by the
// WAW edges the paper's model would impose. The trick that keeps the rest of
// the analyzer unchanged: opening a group runs the ordinary inout
// process_write with the group's *close node* — a TaskNode that is never
// scheduled — as the writing task. That creates one new version whose
// producer is the close node, so everything downstream (RAW edges from later
// readers, copy-back readiness, flush asserts) sees a perfectly normal
// unproduced version until the group closes and the runtime retires the
// close node (combining reduction privates, running the close's copy-ins,
// and releasing its versions exactly like a task retire).
//
// Members each take an edge to the close node, so its pending count is
// 1 (the open guard) + live members; any non-matching access — or a
// barrier/wait_on — closes the group by dropping the guard.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>

#include "common/check.hpp"
#include "common/memcopy.hpp"
#include "common/spin.hpp"
#include "dep/access.hpp"
#include "dep/renaming.hpp"
#include "dep/version.hpp"
#include "graph/task.hpp"
#include "sched/conflict.hpp"

namespace smpss {

struct AccessGroup {
  AccessGroup(Dir mode_, ReductionOp op_, std::size_t bytes_,
              unsigned nworkers_, RenamePool& rpool)
      : mode(mode_), op(op_), bytes(bytes_), nworkers(nworkers_),
        pool(&rpool) {
    token.group = this;
    if (mode == Dir::Concurrent) {
      privates = new std::atomic<void*>[nworkers];
      for (unsigned i = 0; i < nworkers; ++i)
        privates[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  AccessGroup(const AccessGroup&) = delete;
  AccessGroup& operator=(const AccessGroup&) = delete;
  ~AccessGroup() {
    // Normal close retire combines+frees the privates and releases `prev`;
    // this backstop only runs for abandoned runtimes torn down mid-phase.
    if (privates) {
      for (unsigned i = 0; i < nworkers; ++i)
        if (void* p = privates[i].load(std::memory_order_relaxed))
          pool->deallocate(p, bytes, nullptr);
      delete[] privates;
    }
    if (prev) prev->release(*pool);
  }

  // --- identity (immutable after publication) -------------------------------
  Dir mode;             ///< Commutative or Concurrent
  ReductionOp op;       ///< Concurrent: grouping is by operator identity
  std::size_t bytes;    ///< merged datum extent at group open
  unsigned nworkers;    ///< sizes `privates`
  RenamePool* pool;     ///< private buffers + teardown frees

  /// The never-scheduled close node (see file comment). Kept alive by the
  /// group version's producer reference, which outlives every member.
  TaskNode* close = nullptr;

  /// Published-before-initialized guard (lock-free path): the group version
  /// is CAS-published before `prev`/the init copy are recorded, so joiners
  /// and closers spin on this flag first.
  std::atomic<bool> ready{false};

  // --- join/close serialization --------------------------------------------
  SpinLock mu;                  ///< guards `open` writes and member wiring
  std::atomic<bool> open{true}; ///< readable without mu (registry pruning)

  /// Superseded version the group builds on (strong ref, released by the
  /// runtime at close retire): members order after its producer, and the
  /// no-renaming commutative path takes WAR edges from its reader tasks.
  Version* prev = nullptr;

  // --- Commutative ----------------------------------------------------------
  ConflictToken token;  ///< members mutually exclude on this

  /// Renamed group storage must first inherit the previous version's bytes
  /// (plus, for a growing extent, the user-storage tail — hence up to two
  /// copies, mirroring TaskNode::copy_ins); the first member to *run* claims
  /// them (exchange) and performs them under the token, so no member's
  /// writes can be clobbered by the inherit.
  std::atomic<bool> init_pending{false};
  CopyIn init_copies[2] = {};
  unsigned init_count = 0;

  void maybe_init_copy() noexcept {
    if (!init_pending.load(std::memory_order_relaxed)) return;
    if (init_pending.exchange(false, std::memory_order_acq_rel))
      // Same inherit copy as the close-node path: overlap-safe, because
      // master/private extents may alias inside a shared transfer segment.
      for (unsigned i = 0; i < init_count; ++i)
        safe_copy(init_copies[i].dst, init_copies[i].src,
                  init_copies[i].bytes);
  }

  // --- Concurrent -----------------------------------------------------------
  /// Per-worker private buffers, lazily allocated (and identity-seeded) the
  /// first time a member body runs on that worker. Slot `tid` is only ever
  /// written by worker `tid`; the combine at close retire is ordered after
  /// every member by the close node's pending count.
  std::atomic<void*>* privates = nullptr;

  void* private_for(unsigned tid) {
    SMPSS_ASSERT(tid < nworkers);
    void* p = privates[tid].load(std::memory_order_relaxed);
    if (p == nullptr) {
      p = pool->allocate(bytes, nullptr);
      op.init(p, bytes);
      privates[tid].store(p, std::memory_order_release);
    }
    return p;
  }

  /// Close-retire combine: fold every used private into `master` and free it.
  void combine_privates(void* master) noexcept {
    if (!privates) return;
    for (unsigned i = 0; i < nworkers; ++i) {
      if (void* p = privates[i].exchange(nullptr,
                                         std::memory_order_acquire)) {
        op.combine(master, p, bytes);
        pool->deallocate(p, bytes, nullptr);
      }
    }
  }

  /// How many privates were materialized (stats; call before combine).
  unsigned privates_live() const noexcept {
    unsigned n = 0;
    if (privates)
      for (unsigned i = 0; i < nworkers; ++i)
        if (privates[i].load(std::memory_order_relaxed) != nullptr) ++n;
    return n;
  }

  // --- lifetime -------------------------------------------------------------
  // Refs: one per live member (Commutative via its token, Concurrent via its
  // reduce fixup), one for the group version (Version::group() — the initial
  // reference below, handed over at group open), one for the analyzer's
  // open-group registry.
  std::atomic<int> refs{1};
  void add_ref() noexcept { refs.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

}  // namespace smpss
