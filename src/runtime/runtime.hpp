// smpss::Runtime — the public entry point of the library.
//
// An SMPSs program is a sequential program whose annotated functions become
// tasks (paper Sec. II). With this library the annotation is the spawn call:
//
//     smpss::Runtime rt;
//     auto sgemm_t = rt.register_task_type("sgemm_t");
//     for (int i = 0; i < N; i++)
//       for (int j = 0; j < N; j++)
//         for (int k = 0; k < N; k++)
//           rt.spawn(sgemm_t, sgemm_kernel,
//                    smpss::in(A[i][k], M*M), smpss::in(B[k][j], M*M),
//                    smpss::inout(C[i][j], M*M));
//     rt.barrier();
//
// The runtime analyzes parameter dependencies at each invocation, renames
// data to remove WAR/WAW hazards, builds the task graph, and schedules ready
// tasks over the worker threads with the locality policy of Sec. III.
//
// Threading contract (paper-faithful default): spawn/barrier/wait_on are
// main-thread calls (the thread that constructed the Runtime). A spawn
// issued from inside a task executes the function inline, mirroring the
// paper's "task calls inside tasks are treated as normal function calls".
//
// With Config::nested_tasks (SMPSS_NESTED=1) the inline demotion is lifted:
// spawn() is thread-safe and a spawn from inside a task creates a real child
// task. Every submission — main thread, nested, foreign thread, service
// stream — runs one funnel (submit_task): build the node and closure,
// analyze the whole footprint in one step, submit. Analysis takes no mutex:
// each datum's version-chain head is published by CAS and readers pin it
// speculatively (see dep/dependency_analyzer.hpp), so correctness rests on
// per-datum version-chain order, not on a global submission order, and
// sequence numbers come from an atomic counter. Only concurrent submitters
// lock at all — the region table's rwlock, and one mutex around each
// analysis in the no-renaming ablation, whose WAR-edge reader lists need
// serializing; the paper-faithful single submitter never does. taskwait()
// suspends the calling task until its direct children finished, executing
// other ready tasks meanwhile; barrier/wait_on remain main-thread,
// outside-any-task calls.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/slab_pool.hpp"
#include "common/timing.hpp"
#include "dep/dependency_analyzer.hpp"
#include "dep/region_analyzer.hpp"
#include "dep/renaming.hpp"
#include "graph/graph_recorder.hpp"
#include "graph/task.hpp"
#include "runtime/config.hpp"
#include "runtime/params.hpp"
#include "runtime/spawn_closure.hpp"
#include "runtime/stats.hpp"
#include "runtime/stream.hpp"
#include "sched/admission.hpp"
#include "sched/idle_wait.hpp"
#include "sched/ready_lists.hpp"
#include "trace/tracer.hpp"

namespace smpss {

/// Registered task-kind metadata (name for traces/DOT, scheduling priority —
/// the `highpriority` clause of the task construct).
struct TaskTypeInfo {
  std::string name;
  bool high_priority = false;
};

class Runtime {
 public:
  explicit Runtime(Config cfg = Config::from_env());

  /// Drains all in-flight tasks, realigns renamed data, and joins the
  /// workers. Callable from any thread *outside* this runtime's own task
  /// bodies: destruction on the constructing thread runs a full barrier();
  /// destruction elsewhere uses a dedicated drain path (the destroying
  /// thread takes over the main ready-list slot — by the time destruction
  /// is valid, the constructing thread no longer uses this runtime).
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- task types -----------------------------------------------------------

  /// Declare a task kind. Mirrors `#pragma css task [highpriority]` on a
  /// function declaration. Main thread only.
  TaskType register_task_type(std::string name, bool high_priority = false);

  const std::vector<TaskTypeInfo>& task_types() const noexcept {
    return types_;
  }

  // --- task spawning ----------------------------------------------------------

  /// Invoke `fn` as a task of kind `type`. Parameters are wrapped with the
  /// typed access-mode API of runtime/params.hpp — smpss::in/out/inout/
  /// commutative/reduction (plus value/opaque/region); at execution `fn`
  /// receives the resolved (possibly renamed/privatized) pointers in the
  /// same order.
  template <typename F, detail::TaskParam... Ps>
  void spawn(TaskType type, F&& fn, Ps&&... ps) {
    if (!cfg_.nested_tasks && (!on_main_thread() || in_task_context())) {
      // Sec. VII.D: a task call inside a task is a normal function call.
      // The check covers worker threads AND the main thread while it is
      // executing tasks at a blocking condition.
      detail::invoke_inline(std::forward<F>(fn), std::forward<Ps>(ps)...);
      inlined_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    submit_task(type, /*stream=*/nullptr, /*future=*/nullptr,
                std::forward<F>(fn), std::forward<Ps>(ps)...);
  }

  /// Spawn with the default (anonymous) task type.
  template <typename F, detail::TaskParam... Ps>
    requires(!std::is_same_v<std::decay_t<F>, TaskType> &&
             !std::is_same_v<std::decay_t<F>, TaskAttrs>)
  void spawn(F&& fn, Ps&&... ps) {
    spawn(TaskType{0}, std::forward<F>(fn), std::forward<Ps>(ps)...);
  }

  /// Spawn with attributes and an explicit TaskType: the type wins and
  /// `attrs.name` is not consulted.
  template <typename F, detail::TaskParam... Ps>
  void spawn(TaskAttrs, TaskType type, F&& fn, Ps&&... ps) {
    spawn(type, std::forward<F>(fn), std::forward<Ps>(ps)...);
  }

  /// Spawn with attributes but no explicit TaskType: `attrs.name`, when set,
  /// selects the registered type of that name (anonymous type otherwise).
  template <typename F, detail::TaskParam... Ps>
    requires(!std::is_same_v<std::decay_t<F>, TaskType>)
  void spawn(TaskAttrs attrs, F&& fn, Ps&&... ps) {
    const TaskType type =
        attrs.name != nullptr ? find_task_type(attrs.name) : TaskType{0};
    spawn(type, std::forward<F>(fn), std::forward<Ps>(ps)...);
  }

  /// Look up a registered task type by name; TaskType{0} (the anonymous
  /// type) when no match. Safe from any thread once registration is done.
  TaskType find_task_type(const char* name) const noexcept;

  // --- synchronization ---------------------------------------------------------

  /// Wait for all spawned tasks, then realign renamed data back into the
  /// program's own storage. Equivalent to `#pragma css barrier`. The main
  /// thread executes tasks while it waits (Sec. III). Main thread only and
  /// never from inside a task body — a task that must wait for the tasks it
  /// spawned uses taskwait() instead.
  void barrier();

  /// Wait until every *direct child* spawned by the calling task body has
  /// finished executing (OpenMP `taskwait` semantics; children of children
  /// are not awaited — they are the child's responsibility). The calling
  /// thread executes other ready tasks while it waits, so a recursion
  /// deeper than the worker count cannot deadlock the pool. Outside any
  /// task body this waits for all live tasks (no data realignment — that is
  /// barrier()'s job). A no-op in inline (non-nested) mode inside a task,
  /// where children already ran as function calls.
  void taskwait();

  /// Wait until the latest version of `*ptr` has been produced, then copy it
  /// back to the program's storage so the main code can read it. Equivalent
  /// to CellSs/SMPSs `#pragma css wait on(ptr)`. Grants read access only;
  /// use barrier() before writing from main code.
  template <typename T>
  void wait_on(const T* ptr) {
    wait_on_addr(static_cast<const void*>(ptr));
  }

  /// Execute at most one ready task on the calling thread and return whether
  /// one ran. Never blocks and never sleeps — this is the cooperative pump
  /// external wait loops (the multi-process backend's flag/ring waits)
  /// interleave so a 1-thread configuration keeps making progress while it
  /// spins on a condition the runtime knows nothing about. Legal from the
  /// main thread or from inside a task body (same footing as the
  /// execute-while-waiting loops of barrier()/taskwait()); a thread foreign
  /// to this runtime gets `false` and must wait some other way.
  bool help_one();

  // --- service mode -------------------------------------------------------------

  /// Open a persistent submission stream (see runtime/stream.hpp). Requires
  /// Config::nested_tasks (clients are concurrent submitters). Callable
  /// from any thread; the StreamState is registry-pinned until the Runtime
  /// dies. Task types must be registered before clients start submitting.
  StreamHandle open_stream(StreamOptions opts = {});

  /// Graceful whole-runtime shutdown of service mode: move every stream
  /// that is still Open to Draining (new submissions are diagnosed), wait
  /// for all their in-flight tasks (and callbacks) to retire, then mark
  /// them Closed. Does not touch non-stream tasks and does not realign
  /// renamed data — callers needing that run barrier() afterwards.
  void shutdown_streams();

  /// Streams currently in the Open phase.
  std::size_t open_stream_count() const;

  /// One-line JSON snapshot of the service counters (totals, window
  /// occupancy, per-stream admitted/throttled/latency). `tasks_per_s` < 0
  /// omits the rate field (the periodic exporter passes the rate it
  /// computes between periods).
  std::string stats_json(double tasks_per_s = -1.0) const;

  // --- introspection ------------------------------------------------------------

  StatsSnapshot stats() const;
  const Config& config() const noexcept { return cfg_; }
  unsigned num_threads() const noexcept { return cfg_.num_threads; }

  GraphRecorder& graph_recorder() noexcept { return recorder_; }
  const GraphRecorder& graph_recorder() const noexcept { return recorder_; }

  Tracer& tracer() noexcept { return tracer_; }
  const Tracer& tracer() const noexcept { return tracer_; }

  const RenamePool& rename_pool() const noexcept { return pool_; }

  /// Live (spawned, not yet completed) task count. Racy, monitoring only.
  std::size_t live_tasks() const noexcept {
    return tasks_live_.load(std::memory_order_relaxed);
  }

  bool on_main_thread() const noexcept {
    return std::this_thread::get_id() == main_thread_id_;
  }

  /// True while the calling thread is inside a task body (any Runtime).
  static bool in_task_context() noexcept;

 private:
  friend void worker_main(Runtime& rt, unsigned tid);
  friend class StreamHandle;
  friend class FutureState;

  /// Per-thread scheduling state, padded against false sharing.
  struct alignas(kCacheLineSize) WorkerState {
    WorkerCounters counters;
    Xoshiro256 rng;
  };

  /// The one submission funnel behind every spawn (main thread, nested,
  /// foreign thread) and StreamHandle::submit/post: allocate the node,
  /// build the closure, hook up parent/sequence/graph node, analyze every
  /// directional parameter in one step, then submit. A stream submission
  /// (`stream` set) is admitted first — admission is its Sec. III blocking
  /// condition — and may carry a `future` whose task-side ref it takes.
  template <typename F, typename... Ps>
  void submit_task(TaskType type, StreamState* stream, FutureState* future,
                   F&& fn, Ps&&... ps) {
    SMPSS_CHECK(type.id < types_.size(), "unregistered task type");
    if (stream != nullptr) stream_admit(*stream);
    // Pool slot of the submitting thread; kForeignTid (>= num_threads)
    // routes foreign submitters to the pool's internal lock-guarded slot.
    const unsigned alloc_slot = submitter_tid();
    TaskNode* t = allocate_task(alloc_slot);
    t->type_id = type.id;
    t->high_priority = types_[type.id].high_priority;
    if (stream != nullptr) {
      t->stream = stream;
      t->account = &stream->account;
      t->submit_ns = now_ns();
      t->future = future;
    }

    using C = detail::Closure<std::decay_t<F>, std::decay_t<Ps>...>;
    void* mem = t->allocate_closure(sizeof(C), alignof(C), alloc_slot);
    C* closure = ::new (mem)
        C{std::forward<F>(fn), std::tuple<std::decay_t<Ps>...>(
                                   std::forward<Ps>(ps)...)};
    t->set_vtable(&C::vtable);

    begin_submission(t);
    const auto accesses = closure->accesses();
    analyze(t, accesses.data(), accesses.size(), C::kHasRegion);
    submit(t);
  }

  /// Dependency analysis of one task's footprint, in parameter order:
  /// diagnose invalid accesses, then route each to the address-mode or
  /// region-mode analyzer. Per-datum consistency comes from CAS publication
  /// on each chain head, so the only locks are for concurrent submitters
  /// (Config::nested_tasks): the region rwlock while region tracking is
  /// live, and norename_mu_ around the whole footprint in the no-renaming
  /// ablation. The single submitter takes none.
  void analyze(TaskNode* t, const AccessDesc* descs, std::size_t n,
               bool any_region);

  /// Hook up the parent link, assign the (atomic) sequence number, record
  /// the graph node.
  void begin_submission(TaskNode* t);

  /// Account the new task, release its creation guard, then apply the
  /// Sec. III blocking conditions (task window, rename-memory limit) —
  /// except to stream tasks, whose admission already applied them.
  void submit(TaskNode* t);

  /// Ready-list index the calling thread owns in this runtime, or kForeignTid
  /// for threads this runtime does not know (their pushes go to the shared
  /// main list, never to a per-worker deque they do not own).
  static constexpr unsigned kForeignTid = ~0u;
  unsigned submitter_tid() const noexcept;

  /// Construct a TaskNode — placement-new on a pooled block (steady state:
  /// no malloc) or plain new when pooling is disabled.
  TaskNode* allocate_task(unsigned alloc_slot);

  void enqueue_ready(TaskNode* t, unsigned tid, bool at_creation);
  TaskNode* acquire(unsigned tid);

  /// Run `t`, then keep running immediate successors (Config::chain_depth)
  /// as the completions release them — each retire is still complete and in
  /// order (data tokens, parent notification, live count + threshold
  /// wakeups) before the next body starts.
  void execute_task(TaskNode* t, unsigned tid);

  /// One body + full retire. Returns the task to chain into (the single
  /// successor this completion released, when `allow_chain` and no pending
  /// high-priority task preempts it), or nullptr to return to the lists.
  TaskNode* execute_one(TaskNode* t, unsigned tid, bool arrived_by_chain,
                        bool allow_chain);

  /// Run one task on the main thread, or briefly sleep if none is ready.
  void help_once();

  void wait_on_addr(const void* addr);

  // --- commuting-group internals (dep/access_group.hpp) ----------------------

  /// Retire a group-close node: apply its inherit copies, combine reduction
  /// privates into the group storage, mark its version produced, and release
  /// the successors it was holding. Runs wherever the last dependency of the
  /// close resolves (a worker completing the last member, or the submitter
  /// via drain_group_closes when the analyzer sealed an empty/idle group).
  void retire_close(TaskNode* close, unsigned tid);

  /// The data half of a retire, shared by tasks and close nodes: reader
  /// marks, then produced-version refs.
  void retire_data(TaskNode* t);

  /// Retire every close node the analyzer queued (groups sealed on the
  /// submission path resolve there, never on a worker). Called from
  /// submit/barrier/wait_on/drain — any point that observes the analyzer.
  void drain_group_closes();

  // --- service mode internals (runtime/stream.cpp) ---------------------------

  /// Blocking admission for one stream submission: fast path when nobody is
  /// queued and capacity is free, else the weighted round-robin queue.
  /// Increments s.submitted and s.live.
  void stream_admit(StreamState& s);

  /// Retire-side service hook: fulfill the future (callback runs here,
  /// before the stream's live count drops), record latency, credit the
  /// stream, wake drainers.
  void retire_service(TaskNode* t);

  void drain_stream(StreamState& s);
  void close_stream(StreamState& s);
  void wait_future(FutureState& f);

  /// Block until `done()` (stream drain, future wait). Defined in stream.cpp.
  template <typename Done>
  void wait_until(IdleGate& gate, Done done);

  void stats_exporter_main();

  Config cfg_;
  std::thread::id main_thread_id_;
  /// Pooled TaskNode/closure storage. Declared before (so destroyed after)
  /// the analyzers and the rename pool: their destructors release the last
  /// version-held task references, which recycle nodes into this arena.
  /// Null when Config::pool_cache == 0 (plain new/delete lifecycle).
  std::unique_ptr<TaskArena> arena_;
  RenamePool pool_;
  GraphRecorder recorder_;
  DependencyAnalyzer dep_;
  RegionAnalyzer regions_;
  /// The Sec. III ready lists: owner of every placement, lookup and steal
  /// decision (sched/ready_lists.hpp).
  ReadyLists<TaskNode> lists_;
  IdleGate gate_;
  Tracer tracer_;

  std::vector<TaskTypeInfo> types_;
  std::unique_ptr<WorkerState[]> worker_state_;  // [0]=main, [1..n-1]=workers
  std::vector<std::thread> threads_;

  std::atomic<std::size_t> tasks_live_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> inlined_{0};

  /// Serializes concurrent submitters' whole analysis in the no-renaming
  /// ablation only (its per-version reader task lists are plain vectors).
  /// Ordered before region_mu_; never taken with renaming on.
  std::mutex norename_mu_;

  /// Guards the RegionAnalyzer tables. Region-qualified submissions
  /// hold it exclusively; address-mode submissions hold it shared (only for
  /// the mixed-mode diagnosis), so they stay mutually concurrent. The
  /// single-submitter path never touches it. Mutable: stats() takes it
  /// shared to snapshot the region counters.
  mutable std::shared_mutex region_mu_;

  /// Invocation identifier source. Atomic: sequence numbers identify tasks
  /// in traces and the recorded graph but no longer define a global
  /// submission order — correctness rests on per-datum version-chain order
  /// established by the chain-head CAS.
  std::atomic<std::uint64_t> seq_{0};

  // submission-side counters; atomics because nested mode submits from many
  // threads concurrently
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> nested_spawned_{0};
  std::atomic<std::uint64_t> taskwaits_{0};
  std::atomic<std::uint64_t> nested_throttled_{0};
  std::atomic<std::uint64_t> foreign_throttled_{0};
  std::atomic<std::uint64_t> ready_at_creation_{0};

  // written by the main thread only; atomics so that stats() may read them
  // from any thread, a task body included
  std::atomic<std::uint64_t> barriers_{0};
  std::atomic<std::uint64_t> blocked_window_{0};
  std::atomic<std::uint64_t> blocked_memory_{0};

  // --- service mode ----------------------------------------------------------

  /// Append-only stream registry: StreamStates are never freed or reused
  /// before the Runtime dies (versions carry their SubmitterAccount past
  /// stream close). Guarded by streams_mu_ for growth; the states
  /// themselves are internally synchronized.
  mutable std::mutex streams_mu_;
  std::vector<std::unique_ptr<StreamState>> streams_;

  /// Weighted round-robin admission for stream submissions (the fairness
  /// replacement for the free-for-all foreign-thread gate).
  AdmissionControl admission_;

  /// Future waiters sleep here; retire_service notifies after fulfill.
  IdleGate future_gate_;

  // periodic JSON stats exporter (Config::stats_period_ms > 0)
  std::thread stats_thread_;
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;
  bool stats_stop_ = false;
};

// --- StreamHandle template forwarding (needs the full Runtime type) -----------

template <typename F, detail::TaskParam... Ps>
TaskFuture StreamHandle::submit(TaskType type, F&& fn, Ps&&... ps) {
  SMPSS_CHECK(s_ != nullptr, "submit() on an invalid StreamHandle");
  auto* f = new FutureState(rt_);  // refs: the task's and the handle's
  rt_->submit_task(type, s_, f, std::forward<F>(fn),
                   std::forward<Ps>(ps)...);
  return TaskFuture(f);
}

template <typename F, detail::TaskParam... Ps>
  requires(!std::is_same_v<std::decay_t<F>, TaskType>)
TaskFuture StreamHandle::submit(F&& fn, Ps&&... ps) {
  return submit(TaskType{0}, std::forward<F>(fn), std::forward<Ps>(ps)...);
}

template <typename F, detail::TaskParam... Ps>
void StreamHandle::post(TaskType type, F&& fn, Ps&&... ps) {
  SMPSS_CHECK(s_ != nullptr, "post() on an invalid StreamHandle");
  rt_->submit_task(type, s_, /*future=*/nullptr, std::forward<F>(fn),
                   std::forward<Ps>(ps)...);
}

template <typename F, detail::TaskParam... Ps>
  requires(!std::is_same_v<std::decay_t<F>, TaskType>)
void StreamHandle::post(F&& fn, Ps&&... ps) {
  post(TaskType{0}, std::forward<F>(fn), std::forward<Ps>(ps)...);
}

}  // namespace smpss
