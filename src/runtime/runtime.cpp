#include "runtime/runtime.hpp"

#include <algorithm>
#include <cstring>

#include "common/affinity.hpp"
#include "common/memcopy.hpp"
#include "common/timing.hpp"
#include "dep/access_group.hpp"
#include "runtime/thread_context.hpp"
#include "runtime/worker.hpp"
#include "sched/conflict.hpp"

namespace smpss {

Runtime::Runtime(Config cfg)
    : cfg_([&] {
        cfg.normalize();
        return cfg;
      }()),
      main_thread_id_(std::this_thread::get_id()),
      arena_(cfg_.pool_cache > 0
                 ? std::make_unique<TaskArena>(sizeof(TaskNode),
                                               alignof(TaskNode),
                                               cfg_.num_threads,
                                               cfg_.pool_cache)
                 : nullptr),
      pool_(cfg_.rename_memory_limit),
      dep_(pool_, cfg_.renaming, &recorder_, cfg_.num_threads,
           cfg_.pool_cache > 0 ? cfg_.pool_cache : 64),
      regions_(&recorder_),
      lists_(cfg_.num_threads, cfg_.scheduler_mode, cfg_.steal_order) {
  recorder_.set_enabled(cfg_.record_graph);
  // Commuting groups (Dir::Commutative/Concurrent) need a never-scheduled
  // close node per group; it gets a sequence number and a graph-node record
  // like any task so DOT/sched-sim see the group's version producer.
  dep_.set_close_factory([this](unsigned slot) {
    TaskNode* c = allocate_task(slot);
    c->is_group_close = true;
    c->seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    recorder_.record_node(c->seq, 0);
    return c;
  });
  tracer_.init(cfg_.num_threads, cfg_.tracing);
  types_.push_back(TaskTypeInfo{"task", false});

  worker_state_ = std::make_unique<WorkerState[]>(cfg_.num_threads);
  for (unsigned i = 0; i < cfg_.num_threads; ++i)
    worker_state_[i].rng = Xoshiro256(0x5eed + i);

  if (cfg_.pin_threads) pin_current_thread(0);
  threads_.reserve(cfg_.num_threads - 1);
  for (unsigned tid = 1; tid < cfg_.num_threads; ++tid)
    threads_.emplace_back([this, tid] { worker_main(*this, tid); });

  if (cfg_.stats_period_ms > 0)
    stats_thread_ = std::thread([this] { stats_exporter_main(); });
}

Runtime::~Runtime() {
  // Stop the stats exporter first: it emits one final line (so short runs
  // still export), and it must not call stats() while the members below are
  // torn down.
  if (stats_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      stats_stop_ = true;
    }
    stats_cv_.notify_all();
    stats_thread_.join();
  }
  if (on_main_thread() && !in_task_context()) {
    // Streams still open at destruction drain here; flipping them Closed
    // means a buggy late submit is diagnosed, not lost.
    shutdown_streams();
    barrier();
  } else {
    // Destruction off the constructing thread gets its own drain path
    // instead of barrier()'s misleading main-thread-only diagnostic. A
    // runtime must never be destroyed from inside one of its own task
    // bodies — the destructor would wait for the very task it runs in.
    SMPSS_CHECK(!(in_task_context() && detail::tls.current_owner == this),
                "~Runtime may not run inside one of this runtime's own task "
                "bodies — finish the task (or move destruction to another "
                "thread) first");
    // The destroying thread takes over ready-list slot 0: a valid
    // destruction implies the constructing thread has stopped using this
    // runtime, so the slot has no other owner. Registering as worker 0 (not
    // just borrowing acquire(0)) matters: task bodies executed here then
    // submit and taskwait as a normal in-task worker — the never-sleeping
    // throttle, own-list child execution — instead of being misclassified
    // as foreign threads, which must never run inside a task. Save/restore:
    // the destroying thread may be a worker of a *different* runtime.
    detail::ThreadContext& tc = detail::tls;
    Runtime* prev_rt = tc.rt;
    const unsigned prev_tid = tc.tid;
    tc.rt = this;
    tc.tid = 0;
    while (tasks_live_.load(std::memory_order_acquire) > 0) help_once();
    tc.rt = prev_rt;
    tc.tid = prev_tid;
    // Every task retired above, so the per-stream drains are no-ops here —
    // this just closes the phases (late submits diagnose, not vanish).
    shutdown_streams();
    dep_.close_open_groups();
    if (dep_.has_pending_closes()) drain_group_closes();
    dep_.flush_all();
    regions_.flush_all();
  }
  shutdown_.store(true, std::memory_order_release);
  gate_.notify_all();
  for (auto& th : threads_) th.join();
}

TaskType Runtime::register_task_type(std::string name, bool high_priority) {
  // The types_ vector is read locklessly by every spawn; registration must
  // finish before any concurrent submitter exists. In nested mode "no
  // concurrent submitter" means no live task (any task body may spawn), so
  // registering mid-flight is diagnosed instead of silently racing the
  // vector growth.
  SMPSS_CHECK(on_main_thread() && !in_task_context(),
              "register_task_type is main-thread-only, outside task bodies");
  SMPSS_CHECK(!cfg_.nested_tasks ||
                  tasks_live_.load(std::memory_order_acquire) == 0,
              "register_task_type with nested tasks enabled requires no "
              "task in flight (task bodies are concurrent submitters that "
              "read the type table locklessly)");
  types_.push_back(TaskTypeInfo{std::move(name), high_priority});
  return TaskType{static_cast<std::uint32_t>(types_.size() - 1)};
}

TaskType Runtime::find_task_type(const char* name) const noexcept {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i].name == name)
      return TaskType{static_cast<std::uint32_t>(i)};
  return TaskType{0};
}

void Runtime::begin_submission(TaskNode* t) {
  if (cfg_.nested_tasks) {
    // Parent hookup only when the enclosing task belongs to *this* runtime:
    // a task of one runtime spawning into another submits a top-level task
    // there (cross-runtime parent links would tangle the two instances'
    // children accounting and ancestor walks).
    if (detail::tls.in_task_body && detail::tls.current != nullptr &&
        detail::tls.current_owner == this) {
      // Real child task: the parent keeps a live-children count for
      // taskwait() and the child holds a strong ref so the count outlives
      // the parent's retirement.
      TaskNode* parent = detail::tls.current;
      parent->add_ref();
      parent->children_live.fetch_add(1, std::memory_order_relaxed);
      t->parent = parent;
      nested_spawned_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  t->seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  recorder_.record_node(t->seq, t->type_id);
}

void Runtime::analyze(TaskNode* t, const AccessDesc* descs, std::size_t n,
                      bool any_region) {
  if (n == 0) return;
  // The no-renaming ablation's per-version reader task lists (the WAR
  // edges) are plain vectors: concurrent submitters run each task's whole
  // analysis under one mutex, ordered before the region rwlock.
  const bool concurrent = cfg_.nested_tasks;
  std::unique_lock<std::mutex> serial(norename_mu_, std::defer_lock);
  if (concurrent && !cfg_.renaming) serial.lock();
  // Region-mode submissions hold the region table exclusively; address-mode
  // submissions only read it (for the mixed-mode diagnosis) — and skip even
  // that while the table has never been touched, so the common address-only
  // case neither locks nor probes it. An empty table cannot conflict.
  const bool check_regions = any_region || regions_.maybe_tracking();
  std::unique_lock<std::shared_mutex> excl(region_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> shared(region_mu_, std::defer_lock);
  if (concurrent && check_regions) any_region ? excl.lock() : shared.lock();
  for (std::size_t i = 0; i < n; ++i) {
    const AccessDesc& d = descs[i];
    SMPSS_CHECK(d.addr != nullptr, "null pointer passed as task parameter");
    if (is_commuting(d.dir)) {
      // Diagnose invalid mode combinations before any tracking state is
      // touched — the misuse surfaces at the offending spawn, not as a
      // corrupted graph later.
      SMPSS_CHECK(!d.has_region,
                  "commutative/concurrent access modes are address-mode only "
                  "(region-qualified parameters cannot commute)");
      if (d.dir == Dir::Concurrent) {
        SMPSS_CHECK(cfg_.renaming,
                    "reduction (concurrent) parameters require renaming "
                    "(SMPSS_RENAMING=1) — privatization is built on it");
        SMPSS_CHECK(d.op.valid(),
                    "reduction parameter without a reduction operator");
      }
    }
    if (d.has_region) {
      SMPSS_CHECK(!dep_.tracks(d.addr),
                  "array accessed both with and without region specifiers");
      t->resolved.push_back(regions_.process(t, d));
      continue;
    }
    SMPSS_CHECK(!check_regions || !regions_.tracks(d.addr),
                "array accessed both with and without region specifiers");
    SMPSS_CHECK(d.bytes > 0, "task parameter with zero size");
    t->resolved.push_back(dep_.process(t, d));
  }
}

unsigned Runtime::submitter_tid() const noexcept {
  if (detail::tls.rt == this) return detail::tls.tid;  // one of our workers
  if (on_main_thread()) return 0;
  return kForeignTid;
}

TaskNode* Runtime::allocate_task(unsigned alloc_slot) {
  TaskNode* t;
  if (!arena_) {
    t = new TaskNode();
  } else {
    void* mem = arena_->nodes.allocate(alloc_slot);
    t = ::new (mem) TaskNode();
    t->arena = arena_.get();
    t->generation = arena_->nodes.generation_of(mem);
  }
  // The submitting thread's pool slot: successor-edge links and data
  // versions created on this task's behalf allocate from it.
  t->submit_slot = alloc_slot;
  return t;
}

void Runtime::submit(TaskNode* t) {
  // A group this submission sealed (by issuing a non-matching access) may
  // have had no unfinished members left — its close node is then queued on
  // the analyzer, waiting for a runtime thread to retire it. Do it here:
  // this very task may depend on the close's version.
  if (dep_.has_pending_closes()) drain_group_closes();
  // Multi-token tasks acquire their exclusion tokens in one global (pointer)
  // order — the all-or-nothing acquire in acquire() depends on it.
  if (t->conflicts.size() > 1)
    std::sort(t->conflicts.begin(), t->conflicts.begin() + t->conflicts.size());
  spawned_.fetch_add(1, std::memory_order_relaxed);
  tasks_live_.fetch_add(1, std::memory_order_relaxed);
  // Read before the guard release: from then on `t` may run and retire.
  const bool admitted = t->stream != nullptr;

  // Release the creation guard; a task with no unsatisfied inputs "is moved
  // into the main ready list or the high priority list" (Sec. III).
  if (t->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ready_at_creation_.fetch_add(1, std::memory_order_relaxed);
    enqueue_ready(t, submitter_tid(), /*at_creation=*/true);
  }

  // A stream task's blocking conditions already ran as admission
  // (stream_admit); the foreign-thread hard gate below must not run a
  // second, unfair round of backpressure on top.
  if (admitted) return;

  // Blocking conditions (Sec. III): "Whenever it reaches a blocking
  // condition (a barrier, a memory limit, or a graph size limit), it behaves
  // as a worker thread until an unblocking condition is reached."
  if (!on_main_thread() || in_task_context()) {
    // Nested-mode generators (task bodies submitting children) throttle
    // best-effort: drain ready tasks while over the limit, but never sleep.
    // A sleeping in-task submitter can deadlock — if every ready source of
    // the graph is a body blocked in this throttle, live can only drop when
    // one of them completes, which none would. So when no ready task is
    // acquirable the spawn proceeds and the window is a soft limit here;
    // the hard limit stays with the paper's sequential generator below.
    if (!cfg_.nested_tasks || detail::tls.in_throttle) return;
    const unsigned tid = submitter_tid();
    if (tid == kForeignTid) {
      // Foreign threads get the *hard* blocking condition: they execute no
      // tasks of this runtime, so sleeping on the gate cannot starve the
      // graph of ready sources — and without the gate they could grow the
      // graph (and the renamed-storage footprint) without bound.
      //
      // Two exemptions, both liveness: a thread inside *some* task body
      // (another runtime's worker submitting here) must never sleep — its
      // own pool may be waiting on it; and a runtime with no worker threads
      // has no independent executor to drain the graph while the main
      // thread is elsewhere (e.g. blocked joining this very submitter), so
      // the window stays soft there as it was before the gate existed.
      if (in_task_context() || cfg_.num_threads < 2) return;
      const auto blocked = [&] {
        const std::size_t live = tasks_live_.load(std::memory_order_acquire);
        return live > cfg_.task_window_low ||
               (pool_.over_limit() && live > 0);
      };
      if (tasks_live_.load(std::memory_order_relaxed) >= cfg_.task_window ||
          pool_.over_limit()) {
        foreign_throttled_.fetch_add(1, std::memory_order_relaxed);
        while (blocked()) {
          std::uint64_t seen = gate_.prepare_wait();
          if (!blocked()) break;
          gate_.wait(seen, std::chrono::microseconds(200));
        }
      }
      return;
    }
    if (tasks_live_.load(std::memory_order_relaxed) >= cfg_.task_window ||
        pool_.over_limit()) {
      nested_throttled_.fetch_add(1, std::memory_order_relaxed);
      detail::tls.in_throttle = true;
      while (tasks_live_.load(std::memory_order_acquire) >
                 cfg_.task_window_low ||
             pool_.over_limit()) {
        TaskNode* t = acquire(tid);
        if (!t) break;
        execute_task(t, tid);
      }
      detail::tls.in_throttle = false;
    }
    return;
  }
  if (tasks_live_.load(std::memory_order_relaxed) >= cfg_.task_window) {
    blocked_window_.fetch_add(1, std::memory_order_relaxed);
    while (tasks_live_.load(std::memory_order_acquire) > cfg_.task_window_low)
      help_once();
  }
  if (pool_.over_limit()) {
    blocked_memory_.fetch_add(1, std::memory_order_relaxed);
    while (pool_.over_limit() &&
           tasks_live_.load(std::memory_order_acquire) > 0)
      help_once();
  }
}

void Runtime::enqueue_ready(TaskNode* t, unsigned tid, bool at_creation) {
  // Placement belongs to the ready lists; the wakeup protocol stays here
  // (the gate is the Runtime's). A task placed in a shared list (high/main)
  // always wakes one sleeper; a task in the enqueuing worker's own list will
  // be popped by the pusher itself on its next acquire, so only a backlog a
  // thief could take is worth a wakeup.
  const Placed where =
      at_creation
          ? lists_.enqueue_creation(
                t, tid == kForeignTid ? ReadyLists<TaskNode>::kNoWorker : tid,
                cfg_.nested_tasks && in_task_context())
          : lists_.enqueue_released(t, tid);
  if (where == Placed::Local) {
    if (lists_.local_size_estimate(tid) > 1) gate_.notify_one();
    return;
  }
  gate_.notify_one();
}

TaskNode* Runtime::acquire(unsigned tid) {
  WorkerState& ws = worker_state_[tid];
  for (;;) {
    AcquireSource src;
    unsigned attempts = 0;
    TaskNode* t = lists_.acquire(tid, ws.rng, src, attempts);
    ws.counters.steal_attempts += attempts;
    if (t != nullptr && !t->conflicts.empty()) {
      // Commutative members mutually exclude on their group tokens. A
      // ready-but-conflicted task is parked on the blocking token — not
      // spun on, not returned to the lists — and the token's releaser
      // re-enqueues it; this thread goes straight back to the lookup for
      // other work. Park-then-recheck closes the lost-wakeup race where
      // the holder drained the waiter stack between our failed CAS and
      // the park.
      if (ConflictToken* blocked = try_acquire_conflicts(t)) {
        ++ws.counters.conflict_deferrals;
        // Once parked, t may be woken, run and retire on another worker,
        // dropping the member reference that keeps the token's group alive;
        // hold our own across the recheck.
        AccessGroup* g = blocked->group;
        g->add_ref();
        blocked->park(t);
        if (blocked->free_now()) {
          TaskNode* w = blocked->take_waiters();
          while (w != nullptr) {
            TaskNode* next = w->queue_next;
            w->queue_next = nullptr;
            enqueue_ready(w, tid, /*at_creation=*/false);
            w = next;
          }
        }
        g->release();
        continue;
      }
    }
    if (t != nullptr) {
      switch (src) {
        case AcquireSource::HighPriority: ++ws.counters.acquired_high; break;
        case AcquireSource::OwnList: ++ws.counters.acquired_own; break;
        case AcquireSource::MainList: ++ws.counters.acquired_main; break;
        case AcquireSource::Steal: ++ws.counters.steals; break;
        case AcquireSource::None: break;
      }
    }
    return t;
  }
}

bool Runtime::in_task_context() noexcept { return detail::tls.in_task_body; }

void Runtime::execute_task(TaskNode* t, unsigned tid) {
  // The chain loop: run the acquired task, then keep running the single
  // successor each completion releases — up to chain_depth hops — before
  // returning to the Sec. III lookup policy. Iterative on purpose: a long
  // dependency chain must not grow the stack.
  for (unsigned hops = 0;; ++hops) {
    TaskNode* next = execute_one(t, tid, /*arrived_by_chain=*/hops > 0,
                                 /*allow_chain=*/hops < cfg_.chain_depth);
    if (next == nullptr) return;
    t = next;
  }
}

TaskNode* Runtime::execute_one(TaskNode* t, unsigned tid,
                               bool arrived_by_chain, bool allow_chain) {
  WorkerState& ws = worker_state_[tid];
  if (arrived_by_chain) ++ws.counters.chained;

  // Locality accounting: did this task run on the worker whose own list it
  // was placed in? (Main-list placements carry no preference and count as
  // neither.)
  const std::uint32_t pref = t->pref_tid;
  if (pref != ~0u) {
    if (pref == tid)
      ++ws.counters.locality_hits;
    else
      ++ws.counters.locality_misses;
  }

  // Commuting-group entry. Commutative: this worker holds the group tokens
  // (acquired in acquire() / the chain check); the first member to run
  // performs the group's inherit copies under its token. Concurrent: patch
  // the resolved parameter slots to this worker's private buffer — members
  // never touch the shared group storage, the close combines privates.
  for (ConflictToken* tok : t->conflicts) tok->group->maybe_init_copy();
  for (const TaskNode::ReduceFixup& f : t->reduce_fixups)
    t->resolved[f.slot] = f.group->private_for(tid);

  // Body timing feeds the tracer (and task_ns) only in traced runs.
  const bool traced = tracer_.enabled();
  std::uint64_t t0 = 0;
  if (traced) t0 = now_ns();

  // Save/restore: a thread blocked in taskwait() executes other tasks, so
  // task bodies nest on one stack and the innermost one must be visible to
  // spawns (parent tracking) and taskwait (children to await).
  detail::ThreadContext& tc = detail::tls;
  TaskNode* prev_task = tc.current;
  Runtime* prev_owner = tc.current_owner;
  const bool prev_in_body = tc.in_task_body;
  tc.current = t;
  tc.current_owner = this;
  tc.in_task_body = true;
  t->run_body();
  tc.current = prev_task;
  tc.current_owner = prev_owner;
  tc.in_task_body = prev_in_body;

  if (traced) {
    std::uint64_t t1 = now_ns();
    ws.counters.task_ns += t1 - t0;
    tracer_.record(tid, TraceEvent{t->seq, t->parent ? t->parent->seq : 0,
                                   t->type_id, tid, t0, t1,
                                   arrived_by_chain ? 1u : 0u});
  }

  // Release the group tokens FIRST — before the completion edges below can
  // retire a close node — and wake the members parked on them. The member's
  // group refs (token- and fixup-held) drop here too; the group object must
  // not outlive its last member plus the close retire.
  for (ConflictToken* tok : t->conflicts) {
    AccessGroup* g = tok->group;
    tok->release();
    TaskNode* w = tok->take_waiters();
    while (w != nullptr) {
      TaskNode* next = w->queue_next;
      w->queue_next = nullptr;
      enqueue_ready(w, tid, /*at_creation=*/false);
      ++ws.counters.conflict_wakeups;
      w = next;
    }
    g->release();
  }
  for (const TaskNode::ReduceFixup& f : t->reduce_fixups) f.group->release();

  // Publish produced versions before releasing successors.
  for (Version* v : t->produces) v->mark_produced();

  auto successors = t->take_successors_and_complete();
  SmallVector<TaskNode*, 8> released;
  for (TaskNode* s : successors) {
    if (s->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (s->is_group_close) {
        // The last member of a sealed group finished: retire the close node
        // inline (it has no body — combine/copy/mark-produced only).
        retire_close(s, tid);
      } else {
        released.push_back(s);
      }
    }
  }

  TaskNode* chain = nullptr;
  if (released.size() == 1) {
    // Exactly one successor released, and it would land in this worker's
    // own list: run it directly after the retire below — no ready-list
    // round trip, no wakeup. A pending high-priority task preempts the
    // chain (Sec. III: "scheduled as soon as possible"): the successor is
    // enqueued normally and the caller's next acquire serves the high list
    // first. A high-priority *successor* is exempt from that preemption
    // check (running it immediately is the soonest possible dispatch) but
    // still subject to the chain_depth bound — past it, the high-priority
    // acquire path picks it up on the very next lookup.
    TaskNode* s = released[0];
    // A conflicted successor only chains if its tokens are free right now
    // (all-or-nothing, same as acquire()); otherwise it goes to the lists —
    // no parking here, the list-side acquire path handles the deferral.
    if (allow_chain && !lists_.preempt_chain(s) &&
        (s->conflicts.empty() || try_acquire_conflicts(s) == nullptr)) {
      chain = s;
    } else {
      enqueue_ready(s, tid, /*at_creation=*/false);
    }
  } else if (released.size() > 1) {
    // Batched release: publish every released task with one list operation
    // per destination and at most one gate notification for the whole set,
    // instead of a push + notify per successor.
    lists_.enqueue_batch(released.begin(), released.size(), tid);
    // This worker consumes one of the batch itself on its next acquire;
    // the rest are worth at most one wakeup each — and none at all when
    // every wakeable worker is already running (no registered sleeper).
    const int want = static_cast<int>(released.size()) - 1;
    const int issued = gate_.notify_some(want);
    ws.counters.wakeups_suppressed.add(static_cast<std::uint64_t>(
        want - issued));
    ++ws.counters.batched_releases;
  }

  retire_data(t);
  ++ws.counters.executed;

  // Notify the parent after the data tokens retire, so a taskwait()-ing
  // parent that sees children_live == 0 also sees the children's effects.
  // The parent pointer itself stays set (released by ~TaskNode): live
  // descendants walk the ancestor chain during dependency analysis.
  if (TaskNode* parent = t->parent) {
    if (parent->children_live.fetch_sub(1, std::memory_order_acq_rel) == 1)
      gate_.notify_all();  // wake a taskwait()-blocked thread
  }

  // Wake sleepers at the two thresholds they block on: zero (barrier /
  // outside-task taskwait) and the task-window low-water mark (a throttled
  // main thread in help_once, or a gated foreign submitter). These stay
  // unconditional — they guard liveness, not latency — and they run per
  // retire even mid-chain, so a throttled submitter never waits on a chain
  // to finish before seeing the window drain.
  const std::size_t live_before =
      tasks_live_.fetch_sub(1, std::memory_order_acq_rel);
  if (live_before == 1 || live_before == cfg_.task_window_low + 1) {
    gate_.notify_all();
  }
  // Service hook: fulfill the future (callback runs here) and credit the
  // stream — after the data tokens retired (a callback may read the task's
  // results) and after the global live decrement above, so drain()
  // returning (the stream count reaching zero) implies every one of the
  // stream's tasks has left the global count too.
  if (t->stream != nullptr || t->future != nullptr) retire_service(t);
  // A queued stream submitter may now fit: one relaxed load when service
  // mode is idle, a notify per retire when someone is waiting (their probe
  // needs the decrements above to be visible first).
  if (admission_.has_waiters()) admission_.notify();
  t->release();
  return chain;
}

void Runtime::retire_close(TaskNode* close, unsigned tid) {
  // A close node is not a task: it was never spawned (no live count, no
  // ready-list placement, no parent, no stream), has no body, and holds no
  // tokens. Its retire is the data half of execute_one's epilogue — plus
  // the group-specific finalization.
  //
  // Unclaimed inherit copies first: a Commutative group whose members all
  // finished ran maybe_init_copy() under the token, but a group sealed with
  // zero members (open, immediately superseded) still owes the renamed
  // storage its previous contents. The analyzer parks such copies on the
  // close node's own copy_ins. safe_copy, not memcpy: master and private
  // extents may overlap once a datum lives inside a shared transfer
  // segment the runtime did not allocate.
  for (const CopyIn& c : close->copy_ins) safe_copy(c.dst, c.src, c.bytes);

  // Concurrent: fold every worker's private into the group storage. The
  // close's pending count ordered this after the last member.
  if (!close->produces.empty()) {
    Version* gv = close->produces[0];
    if (AccessGroup* g = gv->group(); g != nullptr &&
                                      g->mode == Dir::Concurrent)
      g->combine_privates(gv->storage());
  }

  for (Version* v : close->produces) v->mark_produced();

  auto successors = close->take_successors_and_complete();
  for (TaskNode* s : successors) {
    if (s->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (s->is_group_close) {
        // Stacked groups (a lost publication race stacked two groups on one
        // datum): the outer close may be the inner close's last dependency.
        retire_close(s, tid);
      } else {
        // Foreign threads must use the creation path: the released paths
        // index per-worker structures a foreign tid does not own.
        enqueue_ready(s, tid, /*at_creation=*/tid == kForeignTid);
      }
    }
  }

  retire_data(close);
  close->release();
}

void Runtime::retire_data(TaskNode* t) {
  // Reader marks first (so WAR decisions see the truth), then lifetime refs.
  for (Version* v : t->reads) v->reader_finished(pool_);
  for (Version* v : t->produces) v->release(pool_);
}

void Runtime::drain_group_closes() {
  // Groups sealed on the submission path (non-matching access, barrier,
  // wait_on) queue their close nodes on the analyzer; nothing else will
  // retire them.
  while (dep_.has_pending_closes()) {
    TaskNode* c = dep_.take_pending_closes();
    const unsigned tid = submitter_tid();
    while (c != nullptr) {
      TaskNode* next = c->queue_next;
      c->queue_next = nullptr;
      retire_close(c, tid);
      c = next;
    }
  }
}

bool Runtime::help_one() {
  const unsigned tid = submitter_tid();
  if (tid == kForeignTid) return false;
  if (TaskNode* t = acquire(tid)) {
    execute_task(t, tid);
    return true;
  }
  return false;
}

void Runtime::help_once() {
  if (TaskNode* t = acquire(0)) {
    execute_task(t, 0);
    return;
  }
  std::uint64_t seen = gate_.prepare_wait();
  if (TaskNode* t = acquire(0)) {
    execute_task(t, 0);
    return;
  }
  if (tasks_live_.load(std::memory_order_acquire) == 0) return;
  const std::uint64_t w0 = now_ns();
  gate_.wait(seen, std::chrono::microseconds(200));
  worker_state_[0].counters.idle_ns += now_ns() - w0;
}

void Runtime::taskwait() {
  taskwaits_.fetch_add(1, std::memory_order_relaxed);
  // Only a task of *this* runtime has children here; a foreign runtime's
  // task calling in falls through to the drain-all path (and its
  // main-thread-only check) like any non-task caller.
  TaskNode* cur = in_task_context() && detail::tls.current_owner == this
                      ? detail::tls.current
                      : nullptr;
  if (cur == nullptr) {
    // Outside any task body: wait for everything in flight, but leave the
    // dependency state alone (no realignment — that is barrier()'s job).
    SMPSS_CHECK(on_main_thread(),
                "taskwait outside a task body is main-thread-only");
    while (tasks_live_.load(std::memory_order_acquire) > 0) help_once();
    return;
  }
  const unsigned tid = submitter_tid();
  while (cur->children_live.load(std::memory_order_acquire) > 0) {
    // Run other ready tasks while waiting — this is what lets a recursion
    // deeper than the worker count make progress: the waiter executes its
    // own children (they sit in its local list) on its own stack.
    if (tid != kForeignTid) {
      if (TaskNode* t = acquire(tid)) {
        execute_task(t, tid);
        continue;
      }
    }
    std::uint64_t seen = gate_.prepare_wait();
    if (cur->children_live.load(std::memory_order_acquire) == 0) return;
    if (tid != kForeignTid) {
      if (TaskNode* t = acquire(tid)) {
        execute_task(t, tid);
        continue;
      }
    }
    gate_.wait(seen, std::chrono::microseconds(100));
  }
}

void Runtime::barrier() {
  SMPSS_CHECK(on_main_thread() && !in_task_context(),
              "barrier is main-thread-only and may not be called inside a "
              "task body — use taskwait() to wait for child tasks");
  // Open commuting groups are not sealed before the wait: a running nested
  // generator may still be adding members to one, and splitting it would
  // break the group that logically precedes the barrier. Nothing waits on
  // an open group — a later access seals it — and close nodes are not
  // counted in tasks_live_, so the wait terminates without the seal.
  while (tasks_live_.load(std::memory_order_acquire) > 0) help_once();
  // All tasks retired (and with them all possible nested submitters): seal
  // every open group — a barrier is a non-matching access to everything —
  // retire the closes, align renamed data back into program storage, and
  // drop all dependency state; the next spawn starts from a clean slate.
  dep_.close_open_groups();
  if (dep_.has_pending_closes()) drain_group_closes();
  dep_.flush_all();
  regions_.flush_all();
  barriers_.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::wait_on_addr(const void* addr) {
  SMPSS_CHECK(on_main_thread() && !in_task_context(),
              "wait_on is main-thread-only and may not be called inside a "
              "task body");
  // An open commuting group on this (or any) datum holds its version
  // unproduced (and with it, maybe the user tail); the main thread reading
  // a result is a serialization point, so seal everything first — otherwise
  // the quiescence probes below would wait forever on a group that only a
  // future submission would close.
  dep_.close_open_groups();
  if (dep_.has_pending_closes()) drain_group_closes();
  // In nested mode concurrent submitters may be mutating the tracking
  // tables: the region peek takes the region rwlock, the address-mode peek
  // pins the latest version (see below).
  bool region_tracked;
  {
    std::shared_lock<std::shared_mutex> lk(region_mu_, std::defer_lock);
    if (cfg_.nested_tasks) lk.lock();
    region_tracked = regions_.tracks(addr);
  }
  if (region_tracked) {
    // Region-tracked arrays have no single "latest version"; conservatively
    // drain all tasks (data stays in place for regions, so no copy-back).
    while (tasks_live_.load(std::memory_order_acquire) > 0) help_once();
    return;
  }
  // Pin the latest version as a reader (so the copy source cannot be
  // reused in place under us) and copy back once it is produced and user
  // storage is quiescent.
  while (true) {
    switch (dep_.try_copy_back(addr)) {
      case DependencyAnalyzer::CopyBack::kUntracked:
        return;  // never touched by a task: nothing to wait for
      case DependencyAnalyzer::CopyBack::kDone:
        return;
      case DependencyAnalyzer::CopyBack::kNotReady:
        help_once();
        break;
    }
  }
}

StatsSnapshot Runtime::stats() const {
  // Read-order discipline: spawned_ is incremented before the task can run
  // (submit happens-before execution), so a snapshot that sums the
  // execution-side counters FIRST and reads spawned_ LAST can never report
  // executed > spawned — the transiently impossible totals the old
  // read-everything-in-declaration-order snapshot produced under racing
  // submitters. On top of that, retry until a pass sees spawned_ unchanged
  // end to end (a quiescent-enough window); bounded attempts, because under
  // a saturating submit rate no such window need exist.
  StatsSnapshot s;
  for (int attempt = 0; attempt < 4; ++attempt) {
    s = StatsSnapshot{};
    const std::uint64_t epoch0 = spawned_.load(std::memory_order_seq_cst);

    s.workers.resize(cfg_.num_threads);
    for (unsigned i = 0; i < cfg_.num_threads; ++i) {
      const WorkerCounters& w = worker_state_[i].counters;
      WorkerStatsRow& row = s.workers[i];
      row.executed = w.executed.get();
      row.steals = w.steals.get();
      row.steal_attempts = w.steal_attempts.get();
      row.acquired_high = w.acquired_high.get();
      row.acquired_own = w.acquired_own.get();
      row.acquired_main = w.acquired_main.get();
      row.idle_sleeps = w.idle_sleeps.get();
      row.idle_ns = w.idle_ns.get();
      row.locality_hits = w.locality_hits.get();
      row.locality_misses = w.locality_misses.get();
      row.chained = w.chained.get();
      s.tasks_executed += row.executed;
      s.steals += row.steals;
      s.steal_attempts += row.steal_attempts;
      s.acquired_high += row.acquired_high;
      s.acquired_own += row.acquired_own;
      s.acquired_main += row.acquired_main;
      s.idle_sleeps += row.idle_sleeps;
      s.idle_ns += row.idle_ns;
      s.task_ns += w.task_ns.get();
      s.locality_hits += row.locality_hits;
      s.locality_misses += row.locality_misses;
      s.chained_executions += row.chained;
      s.batched_releases += w.batched_releases.get();
      s.wakeups_suppressed += w.wakeups_suppressed.get();
      s.conflict_deferrals += w.conflict_deferrals.get();
      s.conflict_wakeups += w.conflict_wakeups.get();
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);

    // The dependency counters are striped atomics now — summing them is
    // safe against racing submitters in every mode. The region counters
    // stay lock-guarded plain fields: snapshot under the region rwlock
    // (shared side) when nested submitters may be mutating them.
    const DependencyAnalyzer::Counters dc = dep_.counters_snapshot();
    RegionAnalyzer::Counters rc;
    {
      std::shared_lock<std::shared_mutex> lk(region_mu_, std::defer_lock);
      if (cfg_.nested_tasks) lk.lock();
      rc = regions_.counters();
    }
    s.raw_edges = dc.raw_edges + rc.raw_edges;
    s.war_edges = dc.war_edges + rc.war_edges;
    s.waw_edges = dc.waw_edges + rc.waw_edges;
    s.renames = pool_.rename_count();
    s.rename_bytes_total = pool_.total_bytes();
    s.rename_bytes_peak = pool_.peak_bytes();
    s.in_place_reuses = dc.in_place_reuses;
    s.copy_ins = dc.copy_ins;
    s.copy_in_bytes = dc.copy_in_bytes;
    s.copyback_bytes = dc.copyback_bytes;
    s.tracked_objects = dc.tracked_objects;
    s.lockfree_cas_retries = dc.cas_retries;
    s.region_accesses = rc.accesses;
    s.groups_opened = dc.groups_opened;
    s.group_joins = dc.group_joins;
    s.groups_closed = dc.groups_closed;
    s.commute_edges = dc.commute_edges;

    if (arena_) {
      const PoolStats n = arena_->nodes.stats();
      const PoolStats c = arena_->closures.stats();
      s.pool_hits = n.hits + c.hits;
      s.pool_refills = n.refills + c.refills;
      s.pool_slabs = n.slabs + c.slabs;
    }

    {
      std::lock_guard<std::mutex> lk(streams_mu_);
      std::uint64_t merged[LatencyHistogram::kBuckets] = {};
      for (const auto& st : streams_) {
        StreamStats row;
        row.id = st->id;
        row.name = st->name;
        row.weight = st->ticket.weight;
        row.phase = static_cast<std::uint8_t>(
            st->phase.load(std::memory_order_acquire));
        row.submitted = st->submitted.load(std::memory_order_relaxed);
        row.retired = st->retired.load(std::memory_order_relaxed);
        row.live = st->live.load(std::memory_order_relaxed);
        row.throttled = st->throttled.load(std::memory_order_relaxed);
        row.callbacks_run =
            st->callbacks_run.load(std::memory_order_relaxed);
        row.rename_bytes =
            st->account.rename_bytes.load(std::memory_order_relaxed);
        row.renames = st->account.renames.load(std::memory_order_relaxed);
        row.dep_accesses =
            st->account.accesses.load(std::memory_order_relaxed);
        row.dep_edges = st->account.edges.load(std::memory_order_relaxed);
        row.latency_count = st->latency.count();
        row.latency_p50_ns = st->latency.percentile(0.50);
        row.latency_p99_ns = st->latency.percentile(0.99);
        st->latency.merge_into(merged);
        s.stream_submitted += row.submitted;
        s.stream_retired += row.retired;
        s.stream_throttled += row.throttled;
        s.streams.push_back(std::move(row));
      }
      for (std::uint64_t c : merged) s.service_latency_count += c;
      s.service_p50_ns = LatencyHistogram::percentile_of(
          merged, 0.50, s.service_latency_count);
      s.service_p99_ns = LatencyHistogram::percentile_of(
          merged, 0.99, s.service_latency_count);
    }

    // Submission side last, spawned_ very last (the invariant anchor).
    s.tasks_inlined = inlined_.load(std::memory_order_relaxed);
    s.tasks_nested = nested_spawned_.load(std::memory_order_relaxed);
    s.taskwaits = taskwaits_.load(std::memory_order_relaxed);
    s.nested_throttled = nested_throttled_.load(std::memory_order_relaxed);
    s.foreign_throttled = foreign_throttled_.load(std::memory_order_relaxed);
    s.ready_at_creation = ready_at_creation_.load(std::memory_order_relaxed);
    s.barriers = barriers_.load(std::memory_order_relaxed);
    s.main_blocked_on_window = blocked_window_.load(std::memory_order_relaxed);
    s.main_blocked_on_memory = blocked_memory_.load(std::memory_order_relaxed);
    s.tasks_spawned = spawned_.load(std::memory_order_seq_cst);
    s.snapshot_epoch = s.tasks_spawned;
    s.snapshot_consistent = s.tasks_spawned == epoch0;
    if (s.snapshot_consistent) break;
  }
  return s;
}

}  // namespace smpss
