#include "dep/version.hpp"

#include <new>

#include "dep/access_group.hpp"
#include "dep/renaming.hpp"

namespace smpss {

Version* Version::create(SlabPool& vpool, unsigned slot, void* storage,
                         std::size_t bytes, bool renamed, TaskNode* producer,
                         SubmitterAccount* account) {
  void* mem = vpool.allocate(slot);
  const int init = producer ? 2 : 1;  // latest token (+ producer token)
  auto* cell = static_cast<RefCell*>(mem);
  if (vpool.generation_of(mem) == 1) {
    // First tenancy of this block: the persistent counter cell does not
    // exist yet. Nobody else can hold a pointer into the block, so a plain
    // construction is race-free exactly once.
    ::new (cell) RefCell{};
    cell->refs.store(init, std::memory_order_relaxed);
    cell->readers_pending.store(0, std::memory_order_relaxed);
  } else {
    // Revival: the dead count idles at kDeadBias plus any in-flight phantom
    // excursions, which must stay counted — hence fetch_add, never a store.
    cell->refs.fetch_add(init - kDeadBias, std::memory_order_relaxed);
  }
  return ::new (static_cast<char*>(mem) + kPrefixBytes)
      Version(storage, bytes, renamed, producer, account, &vpool);
}

Version::Version(void* storage, std::size_t bytes, bool renamed,
                 TaskNode* producer, SubmitterAccount* account, SlabPool* vpool)
    : storage_(storage),
      bytes_(bytes),
      renamed_(renamed),
      produced_(producer == nullptr),  // initial versions are already valid
      account_(account),
      producer_(producer),
      vpool_(vpool),
      group_(nullptr),
      user_prev_(nullptr) {
  if (producer_) producer_->add_ref();
}

Version::~Version() {
  if (producer_) producer_->release();
  if (group_) group_->release();
  for (TaskNode* t : reader_tasks_) t->release();
}

void Version::release(RenamePool& pool) noexcept {
  std::atomic<int>& refs = rc().refs;
  int cur = refs.load(std::memory_order_relaxed);
  while (true) {
    SMPSS_ASSERT(cur >= 1);
    // The last live reference parks the persistent count directly at
    // kDeadBias — one atomic step, so no thread ever observes 0 and a
    // phantom decrement on the dead block cannot reach the free path again.
    const int next = cur == 1 ? kDeadBias : cur - 1;
    if (refs.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      if (cur != 1) return;
      break;
    }
  }
  SlabPool* vpool = vpool_;
  Version* prev = user_prev_;
  if (renamed_)
    pool.deallocate(storage_.load(std::memory_order_relaxed), bytes_,
                    account_);
  this->~Version();
  vpool->deallocate(reinterpret_cast<char*>(this) - kPrefixBytes);
  if (prev != nullptr) prev->release(pool);
}

}  // namespace smpss
