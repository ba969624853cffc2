// TaskNode: one dynamically-created task instance — a node of the paper's
// task graph (Sec. II: "Whenever the application calls a task, a node in a
// task graph is added for each task instance and a series of edges
// indicating their dependencies").
//
// Lifetime is reference-counted: the execution path holds one reference,
// every data version produced by the task holds one (so the dependency
// analyzer can still address the producer of a live version), and every
// version that recorded this task as a reader holds one (so WAR edges can be
// added in the no-renaming configuration). Nodes are created by whichever
// thread submits the task (only the main thread in the paper-faithful
// configuration; any thread with nested tasks enabled) under the runtime's
// submission order; completion runs on an arbitrary worker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "common/check.hpp"
#include "common/slab_pool.hpp"
#include "common/small_vector.hpp"
#include "common/spin.hpp"

namespace smpss {

class Version;            // dep/version.hpp
struct SubmitterAccount;  // dep/renaming.hpp
struct StreamState;       // runtime/stream.hpp
class FutureState;        // runtime/stream.hpp
struct AccessGroup;       // dep/access_group.hpp
struct ConflictToken;     // sched/conflict.hpp

/// Identifies a task *kind* (e.g. "sgemm_t"): used for scheduling priority,
/// per-type statistics, and the Fig. 5 graph coloring.
struct TaskType {
  std::uint32_t id = 0;
};

/// Type-erased task body. The concrete closure (built by runtime/spawn.hpp)
/// receives the array of resolved data addresses — after renaming these may
/// differ from the addresses the program passed.
struct ClosureVTable {
  void (*invoke)(void* self, void* const* resolved);
  void (*destroy)(void* self) noexcept;
};

/// A pending byte copy executed immediately before the task body: renaming an
/// `inout` parameter moves the computation to fresh storage, which must first
/// be filled with the predecessor version's contents (paper Sec. II).
struct CopyIn {
  const void* src;
  void* dst;
  std::size_t bytes;
};

class TaskNode;

/// One edge of a predecessor's lock-free successor stack. Allocated from the
/// arena's edge pool (or new/delete without pooling) by the submitting thread
/// that discovered the dependence; freed by whichever worker completes the
/// predecessor and walks the stack.
struct SuccLink {
  TaskNode* succ;
  SuccLink* next;
};

class TaskNode {
 public:
  /// Inline closure storage. Typical closures hold a function pointer plus a
  /// few pointer/scalar parameters; 14 words covers everything in the paper's
  /// applications without a heap allocation per task.
  static constexpr std::size_t kInlineClosureBytes = 112;

  TaskNode() = default;
  TaskNode(const TaskNode&) = delete;
  TaskNode& operator=(const TaskNode&) = delete;

  ~TaskNode() {
    // A task destroyed without ever completing (abandoned runtime teardown)
    // still owns its edge links.
    SuccLink* l = succ_head_.load(std::memory_order_relaxed);
    if (l != closed_sentinel()) {
      while (l != nullptr) {
        SuccLink* next = l->next;
        free_succ_link(l);
        l = next;
      }
    }
    if (vtable_) vtable_->destroy(closure_);
    if (closure_ && closure_ != inline_buf_) {
      if (closure_pooled_) {
        arena->closures.deallocate(closure_);
      } else if (heap_closure_align_ > alignof(std::max_align_t)) {
        ::operator delete(closure_, std::align_val_t{heap_closure_align_});
      } else {
        ::operator delete(closure_);
      }
    }
    if (parent) parent->release();  // may cascade up the (bounded) chain
  }

  // --- closure ------------------------------------------------------------

  /// Reserve closure storage of `bytes`/`align`; returns the slot to
  /// placement-new into. Must be followed by set_vtable(). `alloc_slot` is
  /// the submitting thread's pool slot, only consulted when the closure
  /// overflows the inline buffer and the node belongs to an arena.
  void* allocate_closure(std::size_t bytes, std::size_t align,
                         unsigned alloc_slot = 0) {
    if (bytes <= kInlineClosureBytes && align <= alignof(std::max_align_t)) {
      closure_ = inline_buf_;
    } else if (arena != nullptr && bytes <= TaskArena::kClosureBlockBytes &&
               align <= alignof(std::max_align_t)) {
      closure_ = arena->closures.allocate(alloc_slot);
      closure_pooled_ = true;
    } else if (align > alignof(std::max_align_t)) {
      closure_ = ::operator new(bytes, std::align_val_t{align});
      heap_closure_align_ = align;
    } else {
      closure_ = ::operator new(bytes);
    }
    return closure_;
  }
  void set_vtable(const ClosureVTable* vt) noexcept { vtable_ = vt; }

  void run_body() {
    for (const CopyIn& c : copy_ins) std::memcpy(c.dst, c.src, c.bytes);
    vtable_->invoke(closure_, resolved.begin());
  }

  // --- lifetime -----------------------------------------------------------

  void add_ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }
  void release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (TaskArena* a = arena) {
        // Pooled node: run the destructor in place (returning the closure
        // block and the parent ref), then hand the memory back to whichever
        // submitter slot owns it. The pool outlives every node (it is
        // destroyed after the dependency tables that hold the last task
        // refs), so `a` stays valid past `this`.
        this->~TaskNode();
        a->nodes.deallocate(this);
      } else {
        delete this;
      }
    }
  }

  // --- dependency bookkeeping ----------------------------------------------

  /// Add a true-dependency edge this→succ unless this task already
  /// completed. Returns true if the edge was recorded (succ's pending count
  /// was incremented by the caller's thread).
  ///
  /// Lock-free: the successor list is a Treiber stack of SuccLink nodes
  /// closed by a sentinel at completion. The successor's pending count is
  /// raised BEFORE the link is published, so the completing walker's
  /// decrement can never outrun the increment; if the stack turns out to be
  /// closed the increment is compensated — safe because the caller (the
  /// thread submitting `succ`) still holds succ's creation guard, so the
  /// count cannot reach zero here.
  bool add_successor(TaskNode* succ) {
    SuccLink* head = succ_head_.load(std::memory_order_acquire);
    if (head == closed_sentinel()) return false;
    succ->pending_deps.fetch_add(1, std::memory_order_acq_rel);
    SuccLink* link;
    if (TaskArena* a = arena) {
      link = static_cast<SuccLink*>(a->edges.allocate(succ->submit_slot));
    } else {
      link = new SuccLink;
    }
    link->succ = succ;
    while (true) {
      if (head == closed_sentinel()) {
        free_succ_link(link);
        const std::int32_t prev =
            succ->pending_deps.fetch_sub(1, std::memory_order_acq_rel);
        SMPSS_ASSERT(prev > 1);  // creation guard still held by the caller
        (void)prev;
        return false;
      }
      link->next = head;
      if (succ_head_.compare_exchange_weak(head, link,
                                           std::memory_order_release,
                                           std::memory_order_acquire))
        return true;
    }
  }

  /// Completion: swing the stack head to the closed sentinel (one atomic
  /// exchange — no lock) and hand the successor list to the caller, which
  /// decrements each successor's pending count exactly once per edge.
  SmallVector<TaskNode*, 4> take_successors_and_complete() {
    SmallVector<TaskNode*, 4> out;
    SuccLink* l = succ_head_.exchange(closed_sentinel(),
                                      std::memory_order_acq_rel);
    while (l != nullptr) {
      SuccLink* next = l->next;
      out.push_back(l->succ);
      free_succ_link(l);
      l = next;
    }
    return out;
  }

  /// Completion hint for lock-free pruning: true once the successor stack is
  /// closed — a closed stack can never accept another edge, so a true answer
  /// lets add_edge skip the RMW on the retired producer's stack head.
  bool finished_hint() const noexcept {
    return succ_head_.load(std::memory_order_acquire) == closed_sentinel();
  }

  // --- data (filled by the dependency analyzer on the main thread) ---------

  /// Resolved storage address per directional parameter, in parameter order.
  SmallVector<void*, 6> resolved;
  /// Versions this task reads (copy-in sources too); tokens released at
  /// completion.
  SmallVector<Version*, 4> reads;
  /// Versions this task produces; marked produced + producer token released
  /// at completion.
  SmallVector<Version*, 2> produces;
  /// Copies to run before the body (renamed inout parameters).
  SmallVector<CopyIn, 1> copy_ins;

  // --- commuting access modes (dep/access_group.hpp) ------------------------

  /// Exclusion tokens this task must hold while executing, one per
  /// Dir::Commutative parameter (group ref held through the token). The
  /// runtime acquires them all-or-nothing around ready-list acquire; sorted
  /// by pointer so multi-token acquisition has a global order.
  SmallVector<ConflictToken*, 1> conflicts;
  /// Dir::Concurrent parameters: before the body runs, resolved[slot] is
  /// patched to the executing worker's private reduction buffer.
  struct ReduceFixup {
    std::uint32_t slot;  ///< index into `resolved`
    AccessGroup* group;  ///< strong group ref, released at retire
  };
  SmallVector<ReduceFixup, 1> reduce_fixups;
  /// True for a group-close node: a bookkeeping task that is never enqueued
  /// or executed — when its pending count reaches zero the runtime runs
  /// retire_close() (combine privates / apply copy-ins, release versions)
  /// instead of scheduling it.
  bool is_group_close = false;

  // --- scheduling state -----------------------------------------------------

  /// Unsatisfied input dependencies + 1 creation guard. The guard keeps the
  /// task invisible to the scheduler while the submitting thread is still
  /// wiring edges; release_creation_guard() arms it.
  std::atomic<std::int32_t> pending_deps{1};

  TaskNode* queue_next = nullptr;  ///< intrusive link for the global FIFOs

  /// Worker whose own list this task was placed in (~0u = no preference);
  /// written before queue publication, compared against the executing
  /// worker for the locality-hit statistics.
  std::uint32_t pref_tid = ~0u;

  // --- nesting (only used with Config::nested_tasks) ------------------------

  /// The task whose body spawned this one (strong ref, released by the
  /// destructor so the chain stays readable for this node's whole life);
  /// nullptr for tasks submitted outside any task body. Immutable once the
  /// task is published — ancestor walks from live descendants race with
  /// nothing.
  TaskNode* parent = nullptr;

  /// True if `anc` is this task's parent, grandparent, ... The chain is
  /// ref-kept by each child, so every link stays valid while this task is
  /// alive. Used by the dependency analyzers: a version produced by an
  /// ancestor counts as available to its descendants (the ancestor is
  /// mid-execution, its working copy holds the value the child operates
  /// on) — an ancestor→descendant edge would deadlock against taskwait().
  bool has_ancestor(const TaskNode* anc) const noexcept {
    for (const TaskNode* a = parent; a != nullptr; a = a->parent)
      if (a == anc) return true;
    return false;
  }
  /// Direct children spawned by this task's body that have not yet finished
  /// executing. Runtime::taskwait() blocks (while running other ready tasks)
  /// until this reaches zero.
  std::atomic<std::int32_t> children_live{0};

  std::uint64_t seq = 0;           ///< invocation order, 1-based (Fig. 5)
  std::uint32_t type_id = 0;
  /// Pool slot of the submitting thread (kForeignTid routes to the foreign
  /// slot). Edge links and data versions created while wiring this task's
  /// dependencies allocate from this slot.
  std::uint32_t submit_slot = 0;
  bool high_priority = false;

  // --- service mode (only set for stream-submitted tasks) --------------------

  /// The stream this task was admitted through; retire credits its live/
  /// retired counters and latency histogram. Registry-pinned for the
  /// runtime's life, so the pointer never dangles (see runtime/stream.hpp).
  StreamState* stream = nullptr;
  /// Completion future (task-side ref); fulfilled — and its callback run —
  /// during retire, before the stream's live count drops.
  FutureState* future = nullptr;
  /// Account charged for analyzer traffic and renamed storage; null for
  /// non-stream tasks (the global accounting alone applies).
  SubmitterAccount* account = nullptr;
  /// now_ns() at admission; retire records (now - submit_ns) into the
  /// stream's latency histogram. 0 for non-stream tasks.
  std::uint64_t submit_ns = 0;

  // --- pooled storage (nullptr arena = plain new/delete lifecycle) ----------

  /// The arena this node's memory (and possibly its closure block) came
  /// from; set by the runtime immediately after placement-construction.
  /// Task identity across block reuse rests on `seq` (monotonic, never
  /// recycled); `generation` additionally distinguishes tenancies of one
  /// pool block (copied from the block header at allocation).
  TaskArena* arena = nullptr;
  std::uint32_t generation = 0;

 private:
  static SuccLink* closed_sentinel() noexcept {
    return reinterpret_cast<SuccLink*>(std::uintptr_t{1});
  }

  void free_succ_link(SuccLink* l) noexcept {
    if (TaskArena* a = arena)
      a->edges.deallocate(l);
    else
      delete l;
  }

  std::atomic<std::int32_t> refs_{1};
  /// Lock-free successor stack; closed_sentinel() once completed.
  std::atomic<SuccLink*> succ_head_{nullptr};

  const ClosureVTable* vtable_ = nullptr;
  void* closure_ = nullptr;
  std::size_t heap_closure_align_ = 0;
  bool closure_pooled_ = false;
  alignas(std::max_align_t) unsigned char inline_buf_[kInlineClosureBytes];
};

}  // namespace smpss
