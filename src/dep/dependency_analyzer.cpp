#include "dep/dependency_analyzer.hpp"

#include <algorithm>
#include <cstring>

#include "dep/access_group.hpp"

namespace smpss {

namespace {
/// Nested-task scoping rule: a version counts as available to `task` when it
/// is produced, has no producer (initial data), or its producer is `task`
/// itself or one of `task`'s ancestors. An ancestor is mid-execution — its
/// working copy holds exactly the value the child is meant to operate on —
/// and an ancestor→descendant edge would deadlock against taskwait(). The
/// contract this implies: data a child task touches must be covered by an
/// ancestor's footprint (or be subtree-private), and no outside task may be
/// submitted against it while the subtree is active.
bool available_to(const TaskNode* task, const Version* v) {
  const TaskNode* prod = v->producer();
  return prod == nullptr || v->is_produced() || prod == task ||
         task->has_ancestor(prod);
}
}  // namespace

DependencyAnalyzer::DependencyAnalyzer(RenamePool& pool, bool renaming_enabled,
                                       GraphRecorder* recorder,
                                       unsigned owner_slots,
                                       unsigned cache_blocks)
    : pool_(pool),
      renaming_(renaming_enabled),
      recorder_(recorder),
      workers_(owner_slots < 1 ? 1 : owner_slots),
      buckets_(std::make_unique<std::atomic<DataEntry*>[]>(kBuckets)),
      stripes_(std::make_unique<CounterStripe[]>(kStripes)),
      vpool_(Version::block_bytes(), alignof(std::max_align_t),
             owner_slots < 1 ? 1 : owner_slots,
             cache_blocks < 1 ? 1 : cache_blocks) {}

DependencyAnalyzer::~DependencyAnalyzer() {
  // Normal shutdown goes through flush_all() after a barrier; this handles
  // abandoned runtimes without leaking versions or entries.
  for (AccessGroup* g : open_groups_) g->release();
  for (unsigned b = 0; b < kBuckets; ++b) {
    DataEntry* p = buckets_[b].load(std::memory_order_acquire);
    while (p != nullptr) {
      DataEntry* next = p->next.load(std::memory_order_relaxed);
      p->user_tail->release(pool_);
      p->latest.load(std::memory_order_acquire)->release(pool_);
      delete p;
      p = next;
    }
  }
}

DataEntry& DependencyAnalyzer::entry_for(CounterStripe& st, unsigned slot,
                                         void* addr, std::size_t bytes) {
  std::atomic<DataEntry*>& bucket = buckets_[bucket_of(addr)];
  DataEntry* head = bucket.load(std::memory_order_acquire);
  for (DataEntry* p = head; p != nullptr;
       p = p->next.load(std::memory_order_acquire)) {
    if (p->user_ptr == addr) return *p;
  }
  // Miss: build the entry with its initial version — the program's own
  // storage, already "produced" — and CAS-prepend it. Chains are
  // prepend-only until flush (which requires quiescence), so the walks above
  // and below never race with reclamation.
  auto* e = new DataEntry;
  e->user_ptr = addr;
  e->bytes.store(bytes, std::memory_order_relaxed);
  Version* v0 = Version::create(vpool_, slot, addr, bytes, /*renamed=*/false,
                                /*producer=*/nullptr);
  v0->add_ref();  // the user-tail token
  e->user_tail = v0;
  e->latest.store(v0, std::memory_order_release);
  DataEntry* checked = head;  // everything from here down is already scanned
  while (true) {
    e->next.store(head, std::memory_order_relaxed);
    if (bucket.compare_exchange_weak(head, e, std::memory_order_release,
                                     std::memory_order_acquire)) {
      st.tracked_objects.fetch_add(1, std::memory_order_relaxed);
      return *e;
    }
    // Lost the insert race: scan only the newly prepended prefix for a
    // duplicate of our address; the loser destroys its speculative entry.
    for (DataEntry* p = head; p != checked;
         p = p->next.load(std::memory_order_acquire)) {
      if (p->user_ptr == addr) {
        v0->release(pool_);  // user-tail token
        v0->release(pool_);  // latest token
        delete e;
        return *p;
      }
    }
    checked = head;
  }
}

void DependencyAnalyzer::add_edge(CounterStripe& st, TaskNode* pred,
                                  TaskNode* succ, EdgeKind kind) {
  SMPSS_ASSERT(pred != succ);
  // Release-side fast path: a predecessor whose completion hint is already
  // visible can never accept a new successor — the hint is the successor
  // stack's closed sentinel, so a true hint means add_successor would
  // refuse. Skipping it here keeps the retired producer's stack word
  // untouched (no RMW on a cold cache line) for the common re-read of
  // long-finished data.
  if (pred->finished_hint()) return;
  if (!pred->add_successor(succ)) return;  // predecessor already completed
  switch (kind) {
    case EdgeKind::True:
      st.raw_edges.fetch_add(1, std::memory_order_relaxed);
      break;
    case EdgeKind::Anti:
      st.war_edges.fetch_add(1, std::memory_order_relaxed);
      break;
    case EdgeKind::Output:
      st.waw_edges.fetch_add(1, std::memory_order_relaxed);
      break;
    case EdgeKind::Member:
      st.commute_edges.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (recorder_) recorder_->record_edge(pred->seq, succ->seq, kind);
  // Per-stream accounting: edges are charged to the *successor* (the task
  // whose submission discovered the dependence) — that is the stream whose
  // traffic created the analyzer work.
  if (succ->account)
    succ->account->edges.fetch_add(1, std::memory_order_relaxed);
}

Version* DependencyAnalyzer::pin_latest(CounterStripe& st, DataEntry& e) {
  while (true) {
    Version* v = e.latest.load(std::memory_order_acquire);
    // Register first (count + ref), then validate the head is unchanged.
    // The seq_cst increment inside register_reader pairs with the writer's
    // seq_cst publication CAS and readers_pending probe (Dekker): either our
    // validation sees the writer's new head and we retry, or the writer's
    // probe sees our pending count. If the version died and the block was
    // recycled in between, the abort makes the excursion net-zero (see
    // dep/version.hpp).
    v->register_reader();
    if (e.latest.load(std::memory_order_seq_cst) == v) return v;
    v->abort_reader_registration(pool_);
    st.cas_retries.fetch_add(1, std::memory_order_relaxed);
  }
}

void* DependencyAnalyzer::process(TaskNode* task, const AccessDesc& access) {
  SMPSS_ASSERT(!access.has_region);  // region accesses go to RegionAnalyzer
  const unsigned slot = task->submit_slot;
  CounterStripe& st = stripe_for(slot);
  st.accesses.fetch_add(1, std::memory_order_relaxed);
  if (task->account)
    task->account->accesses.fetch_add(1, std::memory_order_relaxed);
  DataEntry& e = entry_for(st, slot, access.addr, access.bytes);
  switch (access.dir) {
    case Dir::In:
      return process_read(st, task, e, access.bytes);
    case Dir::Out:
      return process_write(st, slot, task, e, access.bytes,
                           /*also_reads=*/false);
    case Dir::InOut:
      return process_write(st, slot, task, e, access.bytes,
                           /*also_reads=*/true);
    case Dir::Commutative:
    case Dir::Concurrent:
      return process_commuting(st, slot, task, e, access);
  }
  return nullptr;  // unreachable
}

void* DependencyAnalyzer::process_read(CounterStripe& st, TaskNode* task,
                                       DataEntry& e, std::size_t bytes) {
  // The speculative pin IS the reader registration once validated.
  Version* v = pin_latest(st, e);
  // Reader task recording feeds WAR edges, which only the no-renaming
  // ablation emits; skip the vector churn (and per-reader task refs) when
  // renaming absorbs those hazards.
  if (!renaming_) v->record_reader_task(task);
  // A read is a non-matching access for any open commuting group at the
  // head: seal it, so no later member can slip in behind this reader. The
  // ordering itself needs nothing special — the group version's producer is
  // its close node, so the ordinary RAW edge below orders this reader after
  // the entire group. (Safe to inspect: the pin above keeps v alive, and
  // sealing races are idempotent.)
  if (AccessGroup* g = v->group()) seal_group(st, g);
  // A freshly CAS-published version may still be storage-unresolved while
  // its writer decides between reuse and rename; bytes()/renamed() are only
  // stable after the wait.
  void* s = v->storage_wait();
  SMPSS_CHECK(!v->renamed() || bytes <= v->bytes(),
              "task declares a larger input size than the renamed version "
              "holds — inconsistent parameter sizes on one datum");
  if (!available_to(task, v)) {
    add_edge(st, v->producer(), task, EdgeKind::True);
  }
  task->reads.push_back(v);
  return s;
}

void* DependencyAnalyzer::process_write(CounterStripe& st, unsigned slot,
                                        TaskNode* task, DataEntry& e,
                                        std::size_t bytes, bool also_reads,
                                        AccessGroup* group) {
  // Publish first, decide later: the new version is CAS-swung onto the chain
  // head with its storage still unresolved. Success transfers the superseded
  // version's latest-token to us — from that point v cannot die under us and
  // no later writer can touch it (writers of one datum serialize on this
  // CAS). Crucially, v is NOT read at all before the CAS: a lost race means
  // the pointer may refer to a recycled block, and only the transferred
  // token makes its fields trustworthy.
  Version* v2 = Version::create(vpool_, slot, Version::unresolved_storage(),
                                /*bytes=*/0, /*renamed=*/false, task);
  if (group) {
    // Opening a commuting group: attach it before publication so any access
    // that observes the new head already sees the group pointer (joiners
    // then spin on group->ready for the wiring below to finish). The
    // version takes over the group's initial reference.
    v2->set_group(group);
  }
  // Strong CAS: a failure is always a lost race, never spurious, so
  // cas_retries counts real contention only (zero with one submitter).
  Version* v = e.latest.load(std::memory_order_acquire);
  while (!e.latest.compare_exchange_strong(v, v2, std::memory_order_seq_cst,
                                           std::memory_order_acquire)) {
    st.cas_retries.fetch_add(1, std::memory_order_relaxed);
  }
  // Our predecessor may itself still be storage-unresolved (its writer is
  // mid-decision); every field read below needs it finalized.
  v->storage_wait();

  // Whatever open commuting group the superseded head carried is sealed by
  // this supersession — including when we are ourselves opening a new group
  // on top (a lost publication race between two matching accesses stacks two
  // groups; the close-node edges below still order them correctly). The
  // hazard probes below see the group version unproduced (its close node
  // retires only after every member), which forces the rename/edge that
  // orders this writer after the whole group.
  if (AccessGroup* pg = v->group()) seal_group(st, pg);

  // Merged-extent invariant: e.bytes is the largest extent ever written and
  // every version covers all of it, so copy-back of `latest` alone restores
  // the full datum. A write smaller than the current extent therefore
  // *inherits* the predecessor's tail bytes instead of truncating them; a
  // write larger than it grows the extent.
  const std::size_t old_ext = v->bytes();
  fetch_max(e.bytes, bytes);
  const std::size_t ext = e.bytes.load(std::memory_order_relaxed);

  if (also_reads && !available_to(task, v)) {
    add_edge(st, v->producer(), task, EdgeKind::True);  // RAW on the old value
  }

  void* storage = nullptr;
  bool renamed = false;
  SubmitterAccount* acct = nullptr;
  bool ancestor_reader = false;  // an unfinished ancestor reads v (no edge)

  if (renaming_) {
    // Renaming configuration: never block on WAR/WAW — either reuse the old
    // version's bytes in place when nothing else will touch them, or move
    // the new version to fresh aligned storage. An old version produced by
    // an ancestor counts as produced (see available_to): the child writes
    // inside the ancestor's access, so reusing its bytes is the coherent
    // choice, not a hazard.
    //
    // Hazard probe: the seq_cst readers_pending read after our seq_cst CAS
    // pairs with the reader pin protocol (register seq_cst, then validate) —
    // a reader that validated against v is visible here, and a reader we do
    // not see will fail validation and retry against v2. Phantom counts from
    // recycled-block excursions can only inflate the probe (spurious rename,
    // never a missed hazard).
    const bool others_reading = v->readers_pending() > 0;
    const bool old_unproduced = !available_to(task, v);
    // A renamed buffer's capacity is the extent it was allocated with; a
    // growing write cannot reuse it in place (user storage can always grow —
    // the program owns at least the declared bytes at that address).
    const bool too_small = v->renamed() && ext > old_ext;
    const bool hazard =
        (also_reads ? others_reading : (others_reading || old_unproduced)) ||
        too_small;
    if (!hazard) {
      // The RAW on the reused value is ordered by the pending-count edge
      // alone.
      storage = v->storage();
      renamed = v->renamed();
      // In-place reuse moves buffer ownership — and with it the stream
      // charge: the credit must go to whichever account paid for the bytes.
      acct = v->account();
      v->disown_storage();  // ownership moves to the new version
      st.in_place_reuses.fetch_add(1, std::memory_order_relaxed);
      // In-place merge is free: tail bytes beyond `bytes` (if any) are
      // already sitting in this storage.
    } else {
      acct = task->account;
      storage = pool_.allocate(ext, acct);
      renamed = true;
      // Bytes the new version must inherit from the predecessor: everything
      // for an inout (the body starts from the old value), the tail beyond
      // the declared write for a shrinking out.
      const std::size_t keep_lo = also_reads ? 0 : bytes;
      if (keep_lo < old_ext) {
        if (!also_reads && !available_to(task, v)) {
          // The inherited tail is a true dependence on the old producer even
          // though the body itself never reads it.
          add_edge(st, v->producer(), task, EdgeKind::True);
        }
        // Register as reader (keeps the old version's storage alive until
        // this task completes) and schedule the byte copy. v is stable (we
        // hold its former latest-token), so this needs no speculative pin.
        v->register_reader();
        task->reads.push_back(v);
        task->copy_ins.push_back(
            CopyIn{static_cast<const char*>(v->storage()) + keep_lo,
                   static_cast<char*>(storage) + keep_lo, old_ext - keep_lo});
        st.copy_ins.fetch_add(1, std::memory_order_relaxed);
        st.copy_in_bytes.fetch_add(old_ext - keep_lo,
                                   std::memory_order_relaxed);
      }
      if (also_reads && ext > old_ext) {
        // Growing inout: bytes [old_ext, ext) were never written by any
        // task, so the body's initial value for them is the program's own
        // storage: a read of the user tail (frozen: v2 is renamed).
        Version* tail = e.user_tail;
        tail->register_reader();
        task->reads.push_back(tail);
        task->copy_ins.push_back(
            CopyIn{static_cast<const char*>(e.user_ptr) + old_ext,
                   static_cast<char*>(storage) + old_ext, ext - old_ext});
        st.copy_ins.fetch_add(1, std::memory_order_relaxed);
        st.copy_in_bytes.fetch_add(ext - old_ext, std::memory_order_relaxed);
      }
    }
  } else {
    // No-renaming ablation: everything stays in the user's storage and the
    // hazards the paper eliminates become explicit graph edges. Ancestor
    // accesses are exempt for the same scoping reason as above. The merge
    // invariant is trivial here — all writes land in user storage. Reading
    // v's reader list is safe because the Runtime serializes this
    // configuration's analysis (see file comment in the header).
    if (!available_to(task, v)) {
      add_edge(st, v->producer(), task, EdgeKind::Output);
    }
    for (TaskNode* r : v->reader_tasks()) {
      if (r == task || r->finished_hint()) continue;
      if (task->has_ancestor(r)) {
        ancestor_reader = true;
      } else {
        add_edge(st, r, task, EdgeKind::Anti);
      }
    }
    storage = v->storage();
    v->disown_storage();
  }

  if (storage == e.user_ptr) {
    // In-place reuse of the program's buffer: v2 becomes the user tail.
    // v's producer and readers are finished or ordered before `task` unless
    // one is an unfinished ancestor; then v2 links v, else v's link.
    SMPSS_ASSERT(e.user_tail == v);
    const TaskNode* prod = v->producer();
    const bool ancestor_pending =
        ancestor_reader || (prod != nullptr && prod != task &&
                            !v->is_produced() && task->has_ancestor(prod));
    Version* link = ancestor_pending ? v : v->user_prev();
    while (link != nullptr && link->settled()) link = link->user_prev();
    v2->set_user_prev(link);
    v2->add_ref();
    e.user_tail = v2;
    v->release(pool_);  // v's user-tail token
  }

  if (group) {
    // Group bookkeeping: v is stable here (we hold its former latest-token)
    // and group->ready is still unset, so no joiner reads these fields yet.
    // The group pins the superseded version so member wiring can keep
    // taking edges from its producer/readers.
    group->bytes = ext;
    v->add_ref();
    group->prev = v;
  }

  // Resolve v2: readers pinned on it are spinning in storage_wait() for
  // exactly this release.
  v2->finalize_storage(storage, ext, renamed, acct);

  task->produces.push_back(v2);
  v->release(pool_);  // drop the latest-token the CAS transferred to us
  return storage;
}

void* DependencyAnalyzer::process_commuting(CounterStripe& st, unsigned slot,
                                            TaskNode* task, DataEntry& e,
                                            const AccessDesc& access) {
  SMPSS_CHECK(close_factory_,
              "commutative/concurrent access before the runtime installed "
              "its group-close factory");
  SMPSS_ASSERT(access.dir != Dir::Concurrent || access.op.valid());

  // Try to join an open matching group at the chain head.
  while (true) {
    // Pin before inspecting: only a validated pin makes v's fields (group
    // pointer included) trustworthy against block recycling.
    Version* v = pin_latest(st, e);
    AccessGroup* g = v->group();
    bool joined = false;
    if (g != nullptr) {
      while (!g->ready.load(std::memory_order_acquire)) cpu_relax();
      const bool match =
          g->mode == access.dir &&
          (access.dir != Dir::Concurrent || g->op == access.op) &&
          access.bytes <= g->bytes;
      if (match) {
        bool still_open;
        g->mu.lock();
        // Head revalidation closes the race where the group was
        // superseded (and sealed) between our pin and the lock.
        if (g->open.load(std::memory_order_relaxed) &&
            e.latest.load(std::memory_order_acquire) == v) {
          join_member(st, task, g);
          joined = true;
        }
        still_open = g->open.load(std::memory_order_relaxed);
        g->mu.unlock();
        if (!joined && still_open) {
          // Open but no longer at the head: retry against the new head.
          v->reader_finished(pool_);
          st.cas_retries.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Sealed group: fall through and open a fresh one on the head.
      } else {
        // A non-matching commuting access seals the group, exactly like a
        // plain read/write would.
        seal_group(st, g);
      }
    }
    if (joined) {
      void* s = v->storage_wait();
      v->reader_finished(pool_);
      return s;
    }
    v->reader_finished(pool_);
    break;
  }

  // Open a new group. The ordinary inout process_write runs with the close
  // node as the writing task; it seals whatever group the superseded head
  // still carried, wires the close node's RAW edge, and hangs the group off
  // the new version (see file comment in dep/access_group.hpp).
  st.groups_opened.fetch_add(1, std::memory_order_relaxed);
  auto* g = new AccessGroup(access.dir, access.op, access.bytes, workers_,
                            pool_);
  TaskNode* close = close_factory_(slot);
  g->close = close;
  void* storage = process_write(st, slot, close, e, access.bytes,
                                /*also_reads=*/true, g);
  if (access.dir == Dir::Commutative && !close->copy_ins.empty()) {
    // Renamed commutative storage: the inherit copies must land before the
    // first member's writes, not at close retire — move them onto the group,
    // where the first member to execute claims them under the token.
    SMPSS_ASSERT(close->copy_ins.size() <= 2);
    g->init_count = 0;
    for (const CopyIn& c : close->copy_ins) g->init_copies[g->init_count++] = c;
    close->copy_ins.clear();
    g->init_pending.store(true, std::memory_order_relaxed);
  }
  register_open_group(g);
  g->ready.store(true, std::memory_order_release);
  // The opener is the group's first member.
  g->mu.lock();
  join_member(st, task, g);
  g->mu.unlock();
  return storage;
}

void DependencyAnalyzer::join_member(CounterStripe& st, TaskNode* task,
                                     AccessGroup* g) {
  Version* prev = g->prev;
  if (g->mode == Dir::Commutative) {
    // Members read-modify-write the group storage directly: each orders
    // after the superseded version's producer (RAW on the inherited value —
    // also covers in-place reuse of unproduced storage) …
    if (prev != nullptr && !available_to(task, prev)) {
      add_edge(st, prev->producer(), task, EdgeKind::True);
    }
    // … and, with renaming off (in-place in user storage), after its still-
    // pending readers. Mutual exclusion among members is not an edge at all:
    // the scheduler arbitrates the shared token at acquire time.
    if (!renaming_ && prev != nullptr) {
      for (TaskNode* r : prev->reader_tasks()) {
        if (r != task && !r->finished_hint() && !task->has_ancestor(r)) {
          add_edge(st, r, task, EdgeKind::Anti);
        }
      }
    }
    // A task naming the same commutative datum twice must not carry the
    // token twice — the all-or-nothing acquire would deadlock against its
    // own first copy.
    bool have_token = false;
    for (std::size_t i = 0; i < task->conflicts.size(); ++i)
      have_token |= task->conflicts[i] == &g->token;
    if (!have_token) {
      g->add_ref();
      task->conflicts.push_back(&g->token);
    }
  } else {
    // Concurrent members touch only their worker-private buffer, so they
    // need no ordering whatsoever — the close node (which owns the inherit
    // copy and the combine) carries the group's data dependences.
    g->add_ref();
    task->reduce_fixups.push_back(TaskNode::ReduceFixup{
        static_cast<std::uint32_t>(task->resolved.size()), g});
  }
  st.group_joins.fetch_add(1, std::memory_order_relaxed);
  // The Member edge is the close node's completion count — not an ordering
  // constraint on the member.
  add_edge(st, task, g->close, EdgeKind::Member);
}

void DependencyAnalyzer::seal_group(CounterStripe& st, AccessGroup* g) {
  // The group may be published but not yet initialized (its opener is
  // still inside process_write).
  while (!g->ready.load(std::memory_order_acquire)) cpu_relax();
  bool winner = false;
  g->mu.lock();
  if (g->open.load(std::memory_order_relaxed)) {
    g->open.store(false, std::memory_order_relaxed);
    winner = true;
  }
  g->mu.unlock();
  if (!winner) return;
  st.groups_closed.fetch_add(1, std::memory_order_relaxed);
  // Drop the close node's open-guard; if every member already finished, the
  // node is ready for Runtime::retire_close now.
  TaskNode* close = g->close;
  if (close->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    push_pending_close(close);
  }
}

void DependencyAnalyzer::push_pending_close(TaskNode* close) noexcept {
  TaskNode* head = pending_closes_.load(std::memory_order_relaxed);
  do {
    close->queue_next = head;
  } while (!pending_closes_.compare_exchange_weak(head, close,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed));
}

void DependencyAnalyzer::register_open_group(AccessGroup* g) {
  std::lock_guard<std::mutex> lk(groups_mu_);
  // Lazy prune: sealed groups need no barrier attention.
  auto dead = std::remove_if(open_groups_.begin(), open_groups_.end(),
                             [](AccessGroup* og) {
                               if (og->open.load(std::memory_order_acquire))
                                 return false;
                               og->release();
                               return true;
                             });
  open_groups_.erase(dead, open_groups_.end());
  g->add_ref();
  open_groups_.push_back(g);
}

void DependencyAnalyzer::close_open_groups() {
  std::vector<AccessGroup*> snap;
  {
    std::lock_guard<std::mutex> lk(groups_mu_);
    snap.swap(open_groups_);
  }
  CounterStripe& st = stripes_[0];
  for (AccessGroup* g : snap) {
    seal_group(st, g);
    g->release();
  }
}

void DependencyAnalyzer::flush_all() {
  CounterStripe& st = stripes_[0];
  for (unsigned b = 0; b < kBuckets; ++b) {
    DataEntry* p = buckets_[b].load(std::memory_order_acquire);
    buckets_[b].store(nullptr, std::memory_order_relaxed);
    while (p != nullptr) {
      DataEntry* next = p->next.load(std::memory_order_relaxed);
      Version* v = p->latest.load(std::memory_order_acquire);
      SMPSS_ASSERT(v->is_produced());
      SMPSS_ASSERT(v->readers_pending() == 0);
      // The merged-extent invariant copy-back correctness rests on.
      SMPSS_ASSERT(v->bytes() == p->bytes.load(std::memory_order_relaxed));
      if (v->storage() != p->user_ptr) {
        std::memcpy(p->user_ptr, v->storage(), v->bytes());
        st.copyback_bytes.fetch_add(v->bytes(), std::memory_order_relaxed);
      }
      p->user_tail->release(pool_);
      v->release(pool_);
      delete p;
      p = next;
    }
  }
}

DataEntry* DependencyAnalyzer::find(const void* addr) {
  for (DataEntry* p = buckets_[bucket_of(addr)].load(std::memory_order_acquire);
       p != nullptr; p = p->next.load(std::memory_order_acquire)) {
    if (p->user_ptr == addr) return p;
  }
  return nullptr;
}

DependencyAnalyzer::CopyBack DependencyAnalyzer::try_copy_back(
    const void* addr) {
  DataEntry* e = find(addr);
  if (e == nullptr) return CopyBack::kUntracked;
  CounterStripe& st = stripes_[0];
  // Pin the head as a reader: any writer racing in must now see
  // readers_pending > 0 and rename, so the bytes we copy from stay stable
  // for the duration of the pin.
  Version* v = pin_latest(st, *e);
  void* s = v->storage_wait();
  // The user tail is the pinned head while that lives in the program's
  // buffer, else frozen; the bytes are quiescent once it (bar our pin) and
  // its links have settled.
  Version* tail = s == e->user_ptr ? v : e->user_tail;
  bool ready = v->is_produced() && tail->settled(tail == v ? 1 : 0);
  for (Version* p = tail->user_prev(); ready && p != nullptr;
       p = p->user_prev()) {
    ready = p->settled();
  }
  if (ready && s != e->user_ptr) {
    std::memcpy(e->user_ptr, s, v->bytes());
    st.copyback_bytes.fetch_add(v->bytes(), std::memory_order_relaxed);
  }
  v->reader_finished(pool_);
  return ready ? CopyBack::kDone : CopyBack::kNotReady;
}

DependencyAnalyzer::Counters DependencyAnalyzer::counters_snapshot() const {
  Counters out;
  for (unsigned i = 0; i < kStripes; ++i) {
    const CounterStripe& st = stripes_[i];
    out.accesses += st.accesses.load(std::memory_order_relaxed);
    out.raw_edges += st.raw_edges.load(std::memory_order_relaxed);
    out.war_edges += st.war_edges.load(std::memory_order_relaxed);
    out.waw_edges += st.waw_edges.load(std::memory_order_relaxed);
    out.in_place_reuses +=
        st.in_place_reuses.load(std::memory_order_relaxed);
    out.copy_ins += st.copy_ins.load(std::memory_order_relaxed);
    out.copy_in_bytes += st.copy_in_bytes.load(std::memory_order_relaxed);
    out.copyback_bytes += st.copyback_bytes.load(std::memory_order_relaxed);
    out.tracked_objects +=
        st.tracked_objects.load(std::memory_order_relaxed);
    out.cas_retries += st.cas_retries.load(std::memory_order_relaxed);
    out.groups_opened += st.groups_opened.load(std::memory_order_relaxed);
    out.group_joins += st.group_joins.load(std::memory_order_relaxed);
    out.groups_closed += st.groups_closed.load(std::memory_order_relaxed);
    out.commute_edges += st.commute_edges.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace smpss
