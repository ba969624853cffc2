// SchedulerPolicy — the single owner of every placement, priority-ordering,
// and steal-victim decision in the runtime. The Runtime (and the graph
// simulator) never touch a ready list directly; they route enqueues through
// the policy, acquire through the policy, and ask the policy whether a
// pending high-priority task must preempt an immediate-successor chain.
//
// Two implementations:
//
//   * PaperPolicy — the SMPSs Sec. III lists verbatim, delegated to
//     ReadyLists<T> unchanged: high FIFO -> own deque (LIFO) -> main FIFO ->
//     creation-order (or random) steal. Every pre-policy test pins this
//     behavior bit-for-bit.
//
//   * AwarePolicy — three signals the paper's scheduler ignores, layered on
//     the same list skeleton:
//       - cost: a lock-free per-worker EWMA table of per-task-type execution
//         time, fed back from the execute-path timestamps (the same clock
//         the tracer records);
//       - critical path: an exact top-level distance (`path_ns`, final at
//         submit — every predecessor's distance is already final by
//         induction) plus a one-hop bottom-level raise (`bl_ns`, fetch-max'd
//         on each predecessor as successors are submitted). A ready task
//         whose priority exceeds the running average by kAwareCritPpm is
//         promoted into the high-priority FIFO, so the longest chain stops
//         starving behind bulk work;
//       - locality: on_submit votes for the worker that executed the
//         producers of the task's input versions (kAwareLocalityPpm share
//         required); placement routes the task to that worker's
//         per-worker MPMC inbox (Chase-Lev pushes are owner-only, so remote
//         placement needs its own lane). Steal order is topology-near:
//         victims sharing the thief's core first, then its package
//         (common/affinity reads the sysfs topology).
//
// The node type T supplies: queue_next (intrusive FIFO link), seq, type_id,
// high_priority, and the aware-policy fields path_ns/bl_ns (atomic u64),
// exec_tid (atomic u32), pref_tid (u32). TaskNode is the runtime
// instantiation; graph/sched_sim drives the very same template code over its
// lightweight SimNode, so the simulator consumes the real policy instead of
// duplicating queue logic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/cache.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/mpmc_queue.hpp"
#include "sched/ready_lists.hpp"

namespace smpss {

enum class SchedPolicyKind : unsigned char {
  Paper,  ///< Sec. III lists verbatim (the default)
  Aware,  ///< cost / critical-path / locality-aware placement
};

const char* to_string(SchedPolicyKind k) noexcept;

/// Everything a policy needs from Config, decoupled so sched/ never includes
/// runtime/ headers (Config::policy_tuning() builds one).
struct PolicyTuning {
  unsigned nthreads = 1;
  SchedulerMode mode = SchedulerMode::Distributed;
  StealOrder steal_order = StealOrder::CreationOrder;
  bool nested_tasks = false;
  SchedPolicyKind kind = SchedPolicyKind::Paper;
};

/// AwarePolicy constants. Promote a ready task to the high-priority FIFO
/// when its critical-path priority exceeds the running average times
/// kAwareCritPpm / 1e6.
inline constexpr std::uint32_t kAwareCritPpm = 1500000;
static_assert(kAwareCritPpm > 1000000,
              "at or below the average, every ready task would be promoted "
              "and the high list would swallow the graph");
/// Minimum share (ppm) of input versions one worker must have produced
/// before placement prefers that worker's queue.
inline constexpr std::uint32_t kAwareLocalityPpm = 500000;
/// Assumed cost (ns) of a task type never yet executed.
inline constexpr std::uint64_t kAwareDefaultCostNs = 1000;

/// Where an enqueue landed. The Runtime owns the wakeup protocol (it holds
/// the gate), so the policy reports placement and the Runtime decides
/// whether to notify: High/Main/Remote always wake one sleeper; Local only
/// when a backlog builds up that a thief could take.
enum class Placed : unsigned char {
  High,    ///< shared high-priority FIFO
  Main,    ///< shared main FIFO
  Local,   ///< the enqueuing worker's own list
  Remote,  ///< another worker's inbox (AwarePolicy locality placement)
};

/// Topology-near victim order for `tid` among `nthreads` workers: same-core
/// SMT siblings first, then same-package, then the rest — each tier in ring
/// (creation) order from tid+1. Assumes the worker->CPU map that
/// pin_current_thread uses (worker i -> allowed CPU i mod count). Falls back
/// to plain creation order when the sysfs topology is unreadable.
std::vector<unsigned> topology_steal_order(unsigned tid, unsigned nthreads);

template <typename T>
class SchedulerPolicy {
 public:
  /// "No owning worker": foreign submitters, and the unset pref_tid.
  static constexpr unsigned kNoWorker = ~0u;

  explicit SchedulerPolicy(const PolicyTuning& tu) : tu_(tu) {}
  virtual ~SchedulerPolicy() = default;

  SchedulerPolicy(const SchedulerPolicy&) = delete;
  SchedulerPolicy& operator=(const SchedulerPolicy&) = delete;

  /// True if submit() should collect the task's predecessors (producers of
  /// its input versions) and call on_submit. PaperPolicy skips the walk.
  virtual bool wants_submit_hook() const noexcept { return false; }

  /// Called once per task, before its creation guard is released (so the
  /// fields written here are visible to whoever releases the task). `preds`
  /// are the producers of the task's input versions, possibly still
  /// executing; they may repeat.
  virtual void on_submit(T* t, T* const* preds, std::size_t npreds) {
    (void)t;
    (void)preds;
    (void)npreds;
  }

  /// True if execute should time task bodies (even without tracing) and
  /// feed the measured ns back through on_executed.
  virtual bool wants_exec_feedback() const noexcept { return false; }

  /// Body-time feedback, called by the worker that ran the task.
  virtual void on_executed(unsigned tid, std::uint32_t type_id,
                           std::uint64_t ns) {
    (void)tid;
    (void)type_id;
    (void)ns;
  }

  /// Current cost estimate of a task type (ns).
  virtual std::uint64_t cost_estimate(std::uint32_t type_id) const {
    (void)type_id;
    return kAwareDefaultCostNs;
  }

  /// Task ready at creation: submitted with no unsatisfied inputs. `tid` is
  /// the submitter's worker slot (kNoWorker for foreign threads); `in_task`
  /// reports whether the submitter is inside a task body (nested spawn).
  virtual Placed enqueue_creation(T* t, unsigned tid, bool in_task) = 0;

  /// Task whose last input dependence was removed by worker `tid`.
  virtual Placed enqueue_released(T* t, unsigned tid) = 0;

  /// Batched release: one completion released `n >= 2` tasks; publish them
  /// with one list operation per destination (the caller issues at most one
  /// wakeup for the whole set).
  virtual void enqueue_batch(T* const* ts, std::size_t n, unsigned tid) = 0;

  /// One full pass of the lookup policy. `source` reports where the task
  /// came from (None on failure); `steal_attempts` counts victims probed.
  virtual T* acquire(unsigned tid, Xoshiro256& rng, AcquireSource& source,
                     unsigned& steal_attempts) = 0;

  /// Must a pending high-priority task preempt chaining into `next`? (The
  /// racy high-list emptiness probe lives here, behind the interface: a
  /// high-priority successor is exempt — running it immediately IS the
  /// soonest possible dispatch.)
  virtual bool preempt_chain(const T* next) const = 0;

  /// Racy size of one worker's own list (wakeup heuristics).
  virtual std::size_t local_size_estimate(unsigned tid) const = 0;

  /// Racy emptiness estimate (idle-sleep gate).
  virtual bool maybe_has_work() const = 0;

  /// Ready tasks promoted into the high-priority FIFO by the critical-path
  /// threshold (always 0 for PaperPolicy).
  virtual std::uint64_t promotions() const { return 0; }

  /// Ready-selection key for the makespan simulator (graph/sched_sim):
  /// lower runs first. PaperPolicy orders by invocation (the classic Graham
  /// list scheduler); AwarePolicy by descending critical-path priority.
  virtual std::pair<std::uint64_t, std::uint64_t> sim_order_key(
      const T* t) const {
    return {0, t->seq};
  }

  const PolicyTuning& tuning() const noexcept { return tu_; }

 protected:
  PolicyTuning tu_;
};

// --- PaperPolicy --------------------------------------------------------------

/// Sec. III verbatim: a thin shell over ReadyLists<T>. Placement, lookup
/// order, steal order, and the chain-preemption probe are exactly the
/// pre-policy runtime's — the existing test suite pins this bit-for-bit.
template <typename T>
class PaperPolicy final : public SchedulerPolicy<T> {
  using Base = SchedulerPolicy<T>;
  using Base::tu_;

 public:
  using Base::kNoWorker;

  explicit PaperPolicy(const PolicyTuning& tu)
      : Base(tu), lists_(tu.nthreads, tu.mode, tu.steal_order) {}

  Placed enqueue_creation(T* t, unsigned tid, bool in_task) override {
    if (t->high_priority) {
      lists_.push_high(t);
      return Placed::High;
    }
    // Nested children ready at creation go to the spawning worker's own
    // list: the child operates on data the parent just touched, so this is
    // the same locality argument Sec. III makes for last-dependence-removed
    // tasks. Main-thread and foreign-thread submissions keep the paper's
    // main-list distribution behavior.
    if (tu_.nested_tasks && in_task && tid != kNoWorker) {
      t->pref_tid = tid;
      lists_.push_local(tid, t);
      return Placed::Local;
    }
    lists_.push_main(t);
    return Placed::Main;
  }

  Placed enqueue_released(T* t, unsigned tid) override {
    if (t->high_priority) {
      lists_.push_high(t);
      return Placed::High;
    }
    // "Each worker thread has its own ready list that contains tasks whose
    // last input dependency has been removed by that thread."
    t->pref_tid = tid;
    lists_.push_local(tid, t);
    return Placed::Local;
  }

  void enqueue_batch(T* const* ts, std::size_t n, unsigned tid) override {
    SmallVector<T*, 8> normal;
    for (std::size_t i = 0; i < n; ++i) {
      if (ts[i]->high_priority) {
        lists_.push_high(ts[i]);
      } else {
        ts[i]->pref_tid = tid;
        normal.push_back(ts[i]);
      }
    }
    lists_.push_local_batch(tid, normal.begin(), normal.size());
  }

  T* acquire(unsigned tid, Xoshiro256& rng, AcquireSource& source,
             unsigned& steal_attempts) override {
    return lists_.acquire(tid, rng, source, steal_attempts);
  }

  bool preempt_chain(const T* next) const override {
    return !next->high_priority && lists_.high_pending();
  }

  std::size_t local_size_estimate(unsigned tid) const override {
    return lists_.local_size_estimate(tid);
  }

  bool maybe_has_work() const override { return lists_.maybe_has_work(); }

 private:
  ReadyLists<T> lists_;
};

// --- AwarePolicy --------------------------------------------------------------

template <typename T>
class AwarePolicy final : public SchedulerPolicy<T> {
  using Base = SchedulerPolicy<T>;
  using Base::tu_;

 public:
  using Base::kNoWorker;

  /// Cost-table width: type ids hash (mask) into this many slots per worker
  /// row. Collisions merge estimates, which only blurs a heuristic.
  static constexpr std::size_t kTypeSlots = 64;

  explicit AwarePolicy(const PolicyTuning& tu)
      : Base(tu), cost_(new CostRow[tu.nthreads]()) {
    SMPSS_CHECK(tu.nthreads >= 1, "need at least one thread");
    const bool dist = tu_.mode == SchedulerMode::Distributed;
    if (dist) {
      local_.reserve(tu.nthreads);
      inbox_.reserve(tu.nthreads);
      for (unsigned i = 0; i < tu.nthreads; ++i) {
        local_.push_back(std::make_unique<ChaseLevDeque<T>>());
        inbox_.push_back(std::make_unique<IntrusiveMpmcFifo<T>>());
      }
      // One victim row per thief, computed once: topology-near order, or
      // ring order when the steal-order ablation asks for random (the rng
      // walk below) or the topology is unreadable.
      steal_rows_.resize(tu.nthreads);
      for (unsigned i = 0; i < tu.nthreads; ++i)
        steal_rows_[i] = topology_steal_order(i, tu.nthreads);
    }
  }

  bool wants_submit_hook() const noexcept override { return true; }

  void on_submit(T* t, T* const* preds, std::size_t npreds) override {
    // A per-task weight hint (TaskAttrs::weight) beats the learned per-type
    // estimate: the user knows this invocation's size, the table only knows
    // the type's history.
    const std::uint64_t own =
        t->weight != 0 ? t->weight : cost_estimate(t->type_id);
    std::uint64_t longest = 0;
    unsigned best_tid = kNoWorker;
    std::size_t best_votes = 0;
    for (std::size_t i = 0; i < npreds; ++i) {
      T* p = preds[i];
      const std::uint64_t d = p->path_ns.load(std::memory_order_relaxed);
      if (d > longest) longest = d;
      // One-hop bottom-level raise: p now has a successor costing `own`, so
      // its distance-to-sink is at least that. Exact multi-hop propagation
      // would need predecessor links; the one-hop bound is O(indegree) per
      // submit and already separates chain tails from leaves.
      fetch_max(p->bl_ns, own);
      const unsigned ptid = p->exec_tid.load(std::memory_order_relaxed);
      if (ptid == kNoWorker) continue;  // producer not started yet
      std::size_t votes = 0;
      for (std::size_t j = 0; j < npreds; ++j)
        if (preds[j]->exec_tid.load(std::memory_order_relaxed) == ptid)
          ++votes;
      if (votes > best_votes) {
        best_votes = votes;
        best_tid = ptid;
      }
    }
    // Top-level distance is exact and final here: every predecessor was
    // submitted earlier, so its own path_ns is final by induction.
    t->path_ns.store(longest + own, std::memory_order_relaxed);
    if (tu_.mode == SchedulerMode::Distributed && best_tid != kNoWorker &&
        best_tid < tu_.nthreads && npreds != 0 &&
        best_votes * 1000000ull >=
            static_cast<std::uint64_t>(npreds) * kAwareLocalityPpm)
      t->pref_tid = best_tid;
  }

  bool wants_exec_feedback() const noexcept override { return true; }

  void on_executed(unsigned tid, std::uint32_t type_id,
                   std::uint64_t ns) override {
    if (tid >= tu_.nthreads) return;
    std::atomic<std::uint64_t>& cell = cost_[tid].ewma[slot_of(type_id)];
    const std::uint64_t old = cell.load(std::memory_order_relaxed);
    const std::uint64_t next = old == 0 ? ns : old - old / 4 + ns / 4;
    cell.store(next, std::memory_order_relaxed);  // single writer per row
    // Merged view for readers (racy last-writer-wins store — an estimate).
    shared_cost_[slot_of(type_id)].store(next, std::memory_order_relaxed);
  }

  std::uint64_t cost_estimate(std::uint32_t type_id) const override {
    const std::uint64_t c =
        shared_cost_[slot_of(type_id)].load(std::memory_order_relaxed);
    return c != 0 ? c : kAwareDefaultCostNs;
  }

  Placed enqueue_creation(T* t, unsigned tid, bool in_task) override {
    if (Placed p; place_high(t, p)) return p;
    if (tu_.mode == SchedulerMode::Distributed) {
      const unsigned pref = t->pref_tid;
      if (pref != kNoWorker && pref < tu_.nthreads) {
        if (pref == tid) {
          local_[tid]->push_bottom(t);
          return Placed::Local;
        }
        inbox_[pref]->push_back(t);
        return Placed::Remote;
      }
      // No locality signal: keep the paper's nested-child placement.
      if (tu_.nested_tasks && in_task && tid != kNoWorker) {
        t->pref_tid = tid;
        local_[tid]->push_bottom(t);
        return Placed::Local;
      }
    }
    main_.push_back(t);
    return Placed::Main;
  }

  Placed enqueue_released(T* t, unsigned tid) override {
    if (Placed p; place_high(t, p)) return p;
    if (tu_.mode == SchedulerMode::Distributed) {
      const unsigned pref = t->pref_tid;
      if (pref != kNoWorker && pref < tu_.nthreads && pref != tid) {
        // The input-locality vote beats the last-dependence-removed-here
        // default: most of this task's inputs live in pref's cache.
        inbox_[pref]->push_back(t);
        return Placed::Remote;
      }
      t->pref_tid = tid;
      local_[tid]->push_bottom(t);
      return Placed::Local;
    }
    t->pref_tid = tid;
    main_.push_back(t);
    return Placed::Local;  // centralized: same wakeup contract as paper
  }

  void enqueue_batch(T* const* ts, std::size_t n, unsigned tid) override {
    SmallVector<T*, 8> own;
    for (std::size_t i = 0; i < n; ++i) {
      T* t = ts[i];
      if (Placed p; place_high(t, p)) continue;
      if (tu_.mode == SchedulerMode::Distributed) {
        const unsigned pref = t->pref_tid;
        if (pref != kNoWorker && pref < tu_.nthreads && pref != tid) {
          inbox_[pref]->push_back(t);
          continue;
        }
        t->pref_tid = tid;
        own.push_back(t);
      } else {
        t->pref_tid = tid;
        main_.push_back(t);
      }
    }
    if (!own.empty()) local_[tid]->push_bottom_batch(own.begin(), own.size());
  }

  T* acquire(unsigned tid, Xoshiro256& rng, AcquireSource& source,
             unsigned& steal_attempts) override {
    (void)rng;  // victim order is precomputed (topology-near)
    steal_attempts = 0;
    if (T* t = high_.try_pop_front()) {
      source = AcquireSource::HighPriority;
      return t;
    }
    if (tu_.mode == SchedulerMode::Distributed) {
      if (T* t = local_[tid]->pop_bottom()) {
        source = AcquireSource::OwnList;
        return t;
      }
      // The inbox is this worker's too — tasks other workers routed here
      // because our cache holds their inputs.
      if (T* t = inbox_[tid]->try_pop_front()) {
        source = AcquireSource::OwnList;
        return t;
      }
    }
    if (T* t = main_.try_pop_front()) {
      source = AcquireSource::MainList;
      return t;
    }
    if (tu_.mode == SchedulerMode::Distributed && tu_.nthreads > 1) {
      for (unsigned victim : steal_rows_[tid]) {
        ++steal_attempts;
        if (T* t = local_[victim]->steal_top()) {
          source = AcquireSource::Steal;
          return t;
        }
        if (T* t = inbox_[victim]->try_pop_front()) {
          source = AcquireSource::Steal;
          return t;
        }
      }
    }
    source = AcquireSource::None;
    return nullptr;
  }

  bool preempt_chain(const T* next) const override {
    // Promoted criticals live in the same high FIFO, so the one probe
    // covers both the user's highpriority tasks and the critical-path
    // promotions.
    return !next->high_priority && !high_.empty_estimate();
  }

  std::size_t local_size_estimate(unsigned tid) const override {
    if (tu_.mode != SchedulerMode::Distributed) return main_.size_estimate();
    return local_[tid]->size_estimate() + inbox_[tid]->size_estimate();
  }

  bool maybe_has_work() const override {
    if (!high_.empty_estimate() || !main_.empty_estimate()) return true;
    if (tu_.mode == SchedulerMode::Distributed) {
      for (const auto& d : local_)
        if (!d->empty_estimate()) return true;
      for (const auto& q : inbox_)
        if (!q->empty_estimate()) return true;
    }
    return false;
  }

  std::uint64_t promotions() const override {
    return promotions_.load(std::memory_order_relaxed);
  }

  std::pair<std::uint64_t, std::uint64_t> sim_order_key(
      const T* t) const override {
    return {std::numeric_limits<std::uint64_t>::max() - priority_of(t),
            t->seq};
  }

 private:
  struct alignas(kCacheLineSize) CostRow {
    std::atomic<std::uint64_t> ewma[kTypeSlots] = {};
  };

  static std::size_t slot_of(std::uint32_t type_id) noexcept {
    return type_id & (kTypeSlots - 1);
  }

  static void fetch_max(std::atomic<std::uint64_t>& a,
                        std::uint64_t v) noexcept {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  static std::uint64_t priority_of(const T* t) noexcept {
    return t->path_ns.load(std::memory_order_relaxed) +
           t->bl_ns.load(std::memory_order_relaxed);
  }

  /// Classify one ready task against the promotion threshold (and fold its
  /// priority into the running average). True if it went to the high FIFO.
  bool place_high(T* t, Placed& placed) {
    const std::uint64_t pr = priority_of(t);
    // Racy read-modify-store EWMA: concurrent updates may drop each other,
    // which only slows the average's drift — it stays an average.
    const std::uint64_t avg = avg_priority_.load(std::memory_order_relaxed);
    avg_priority_.store(avg == 0 ? pr : avg - avg / 8 + pr / 8,
                        std::memory_order_relaxed);
    bool crit = false;
    if (!t->high_priority && avg != 0) {
      // Relative-to-average threshold: uniform graphs (a stencil where all
      // priorities agree) promote nothing and keep their locality; a chain
      // tail starving behind bulk work clears the bar.
      const std::uint64_t thresh = avg * (kAwareCritPpm / 1000u) / 1000u;
      crit = pr > thresh;
    }
    if (!t->high_priority && !crit) return false;
    if (crit && !t->high_priority)
      promotions_.fetch_add(1, std::memory_order_relaxed);
    high_.push_back(t);
    placed = Placed::High;
    return true;
  }

  IntrusiveMpmcFifo<T> high_;
  IntrusiveMpmcFifo<T> main_;
  std::vector<std::unique_ptr<ChaseLevDeque<T>>> local_;
  /// Per-worker remote-placement lane: Chase-Lev bottoms are owner-only, so
  /// locality routing from another worker needs an MPMC inbox per target.
  std::vector<std::unique_ptr<IntrusiveMpmcFifo<T>>> inbox_;
  std::vector<std::vector<unsigned>> steal_rows_;

  /// Per-worker cost rows (single writer each) + a merged last-writer-wins
  /// view so cost_estimate is one relaxed load instead of a row scan.
  std::unique_ptr<CostRow[]> cost_;
  std::atomic<std::uint64_t> shared_cost_[kTypeSlots] = {};

  std::atomic<std::uint64_t> avg_priority_{0};
  std::atomic<std::uint64_t> promotions_{0};
};

template <typename T>
std::unique_ptr<SchedulerPolicy<T>> make_policy(const PolicyTuning& tu) {
  if (tu.kind == SchedPolicyKind::Aware)
    return std::make_unique<AwarePolicy<T>>(tu);
  return std::make_unique<PaperPolicy<T>>(tu);
}

}  // namespace smpss
