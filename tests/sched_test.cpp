// Scheduling-substrate tests: Chase-Lev deque (LIFO owner / FIFO thief
// discipline, growth, concurrent-steal exactness), the intrusive MPMC FIFO,
// the 3-tier ReadyLists policy of paper Sec. III, and the idle gate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/idle_wait.hpp"
#include "sched/mpmc_queue.hpp"
#include "sched/ready_lists.hpp"

namespace smpss {
namespace {

struct Item {
  explicit Item(int v) : value(v) {}
  int value;
  Item* queue_next = nullptr;
};

// --- ChaseLevDeque --------------------------------------------------------------

TEST(ChaseLevDeque, OwnerPopsLifo) {
  ChaseLevDeque<Item> d;
  Item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.pop_bottom()->value, 3);
  EXPECT_EQ(d.pop_bottom()->value, 2);
  EXPECT_EQ(d.pop_bottom()->value, 1);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(ChaseLevDeque, ThiefStealsFifo) {
  ChaseLevDeque<Item> d;
  Item a(1), b(2), c(3);
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.steal_top()->value, 1);  // oldest first
  EXPECT_EQ(d.steal_top()->value, 2);
  EXPECT_EQ(d.pop_bottom()->value, 3);
  EXPECT_EQ(d.steal_top(), nullptr);
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<Item> d(16);
  std::vector<Item> items;
  items.reserve(1000);
  for (int i = 0; i < 1000; ++i) items.emplace_back(i);
  for (auto& it : items) d.push_bottom(&it);
  EXPECT_EQ(d.size_estimate(), 1000u);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(d.pop_bottom()->value, i);
}

TEST(ChaseLevDeque, ConcurrentStealsDeliverEachItemOnce) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 6;
  ChaseLevDeque<Item> d;
  std::vector<Item> items;
  items.reserve(kItems);
  for (int i = 0; i < kItems; ++i) items.emplace_back(i);

  std::atomic<bool> go{false};
  std::atomic<int> taken{0};
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t)
    thieves.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      while (taken.load(std::memory_order_relaxed) < kItems) {
        if (Item* it = d.steal_top()) {
          seen[static_cast<std::size_t>(it->value)].fetch_add(1);
          taken.fetch_add(1);
        }
      }
    });

  go.store(true, std::memory_order_release);
  // Owner interleaves pushes and occasional pops.
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(&items[static_cast<std::size_t>(i)]);
    if (i % 7 == 0) {
      if (Item* it = d.pop_bottom()) {
        seen[static_cast<std::size_t>(it->value)].fetch_add(1);
        taken.fetch_add(1);
      }
    }
  }
  while (taken.load() < kItems) {
    if (Item* it = d.pop_bottom()) {
      seen[static_cast<std::size_t>(it->value)].fetch_add(1);
      taken.fetch_add(1);
    }
  }
  for (auto& t : thieves) t.join();
  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
}

// --- IntrusiveMpmcFifo -------------------------------------------------------------

TEST(MpmcFifo, FifoOrder) {
  IntrusiveMpmcFifo<Item> q;
  Item a(1), b(2), c(3);
  q.push_back(&a);
  q.push_back(&b);
  q.push_back(&c);
  EXPECT_EQ(q.pop_front()->value, 1);
  EXPECT_EQ(q.pop_front()->value, 2);
  EXPECT_EQ(q.pop_front()->value, 3);
  EXPECT_EQ(q.pop_front(), nullptr);
  EXPECT_TRUE(q.empty_estimate());
}

TEST(MpmcFifo, ConcurrentPushPopConservesItems) {
  constexpr int kPerProducer = 5000;
  constexpr int kProducers = 4, kConsumers = 4;
  IntrusiveMpmcFifo<Item> q;
  std::vector<std::vector<Item>> storage(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    storage[static_cast<std::size_t>(p)].reserve(kPerProducer);
    for (int i = 0; i < kPerProducer; ++i)
      storage[static_cast<std::size_t>(p)].emplace_back(p * kPerProducer + i);
  }
  std::atomic<int> consumed{0};
  std::atomic<long> sum{0};
  std::vector<std::thread> ts;
  for (int p = 0; p < kProducers; ++p)
    ts.emplace_back([&, p] {
      for (auto& it : storage[static_cast<std::size_t>(p)]) q.push_back(&it);
    });
  for (int c = 0; c < kConsumers; ++c)
    ts.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        if (Item* it = q.pop_front()) {
          sum.fetch_add(it->value);
          consumed.fetch_add(1);
        }
      }
    });
  for (auto& t : ts) t.join();
  long expect = 0;
  for (int v = 0; v < kProducers * kPerProducer; ++v) expect += v;
  EXPECT_EQ(sum.load(), expect);
}

// --- ReadyLists (the Sec. III policy) ---------------------------------------------

class ReadyListsPolicy : public ::testing::Test {
 protected:
  Xoshiro256 rng{123};
  AcquireSource src = AcquireSource::None;
  unsigned attempts = 0;
};

TEST_F(ReadyListsPolicy, HighPriorityBeatsEverything) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item own(1), mainq(2), high(3);
  rl.push_local(0, &own);
  rl.push_main(&mainq);
  rl.push_high(&high);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 3);
  EXPECT_EQ(src, AcquireSource::HighPriority);
}

TEST_F(ReadyListsPolicy, OwnListBeatsMainList) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item own(1), mainq(2);
  rl.push_local(0, &own);
  rl.push_main(&mainq);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 1);
  EXPECT_EQ(src, AcquireSource::OwnList);
}

TEST_F(ReadyListsPolicy, MainListBeatsStealing) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item other(1), mainq(2);
  rl.push_local(1, &other);
  rl.push_main(&mainq);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 2);
  EXPECT_EQ(src, AcquireSource::MainList);
}

TEST_F(ReadyListsPolicy, StealsFromNextThreadInCreationOrder) {
  ReadyLists<Item> rl(4, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item v2(2), v3(3);
  rl.push_local(2, &v2);
  rl.push_local(3, &v3);
  // Worker 1 must visit 2 before 3 ("in creation order starting from the
  // next one").
  EXPECT_EQ(rl.acquire(1, rng, src, attempts)->value, 2);
  EXPECT_EQ(src, AcquireSource::Steal);
  EXPECT_EQ(rl.acquire(1, rng, src, attempts)->value, 3);
}

TEST_F(ReadyListsPolicy, OwnListIsLifoStealIsFifo) {
  ReadyLists<Item> rl(2, SchedulerMode::Distributed, StealOrder::CreationOrder);
  Item a(1), b(2), c(3);
  rl.push_local(0, &a);
  rl.push_local(0, &b);
  rl.push_local(0, &c);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 3);  // LIFO own
  EXPECT_EQ(rl.acquire(1, rng, src, attempts)->value, 1);  // FIFO steal
}

TEST_F(ReadyListsPolicy, CentralizedModeUsesOneQueue) {
  ReadyLists<Item> rl(4, SchedulerMode::Centralized, StealOrder::CreationOrder);
  Item a(1), b(2);
  rl.push_local(2, &a);  // redirected to the main list
  rl.push_main(&b);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts)->value, 1);  // FIFO order
  EXPECT_EQ(src, AcquireSource::MainList);
  EXPECT_EQ(rl.acquire(3, rng, src, attempts)->value, 2);
}

TEST_F(ReadyListsPolicy, EmptyReturnsNullWithAttemptCount) {
  ReadyLists<Item> rl(4, SchedulerMode::Distributed, StealOrder::CreationOrder);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts), nullptr);
  EXPECT_EQ(src, AcquireSource::None);
  EXPECT_EQ(attempts, 3u);  // probed the other three workers
}

TEST_F(ReadyListsPolicy, RandomStealStillFindsWork) {
  ReadyLists<Item> rl(4, SchedulerMode::Distributed, StealOrder::Random);
  Item a(7);
  rl.push_local(3, &a);
  Item* got = nullptr;
  for (int tries = 0; tries < 64 && !got; ++tries)
    got = rl.acquire(0, rng, src, attempts);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->value, 7);
}

/// The placement fields ReadyLists' enqueue rules read and write.
struct Placeable {
  explicit Placeable(int v, bool high = false)
      : value(v), high_priority(high) {}
  int value;
  bool high_priority;
  std::uint32_t pref_tid = ~0u;
  Placeable* queue_next = nullptr;
};

TEST_F(ReadyListsPolicy, CreationPlacement) {
  ReadyLists<Placeable> rl(2, SchedulerMode::Distributed,
                           StealOrder::CreationOrder);
  constexpr unsigned kNone = ReadyLists<Placeable>::kNoWorker;
  Placeable high(1, true), top(2), nested(3), foreign(4);
  EXPECT_EQ(rl.enqueue_creation(&high, 1, true), Placed::High);
  // Main-thread submissions go to the main list and carry no preference.
  EXPECT_EQ(rl.enqueue_creation(&top, 0, false), Placed::Main);
  EXPECT_EQ(top.pref_tid, kNone);
  // A nested child lands in its spawner's own list.
  EXPECT_EQ(rl.enqueue_creation(&nested, 1, true), Placed::Local);
  EXPECT_EQ(nested.pref_tid, 1u);
  // A foreign thread owns no list, even inside a task body.
  EXPECT_EQ(rl.enqueue_creation(&foreign, kNone, true), Placed::Main);
  EXPECT_EQ(foreign.pref_tid, kNone);
  EXPECT_EQ(rl.acquire(1, rng, src, attempts), &high);
  EXPECT_EQ(rl.acquire(1, rng, src, attempts), &nested);
  EXPECT_EQ(src, AcquireSource::OwnList);
  EXPECT_EQ(rl.acquire(1, rng, src, attempts), &top);
  EXPECT_EQ(rl.acquire(1, rng, src, attempts), &foreign);
}

TEST_F(ReadyListsPolicy, ReleasePlacementAndChainPreemption) {
  ReadyLists<Placeable> rl(2, SchedulerMode::Distributed,
                           StealOrder::CreationOrder);
  Placeable a(1), b(2), c(3, true), d(4);
  EXPECT_EQ(rl.enqueue_released(&a, 1), Placed::Local);
  EXPECT_EQ(a.pref_tid, 1u);
  EXPECT_FALSE(rl.preempt_chain(&d));
  Placeable* batch[] = {&b, &c};
  rl.enqueue_batch(batch, 2, 0);
  EXPECT_EQ(b.pref_tid, 0u);
  EXPECT_EQ(c.pref_tid, ~0u);  // high-priority tasks carry no preference
  // The pending high-priority task preempts a normal chain, never a
  // high-priority successor.
  EXPECT_TRUE(rl.preempt_chain(&d));
  EXPECT_FALSE(rl.preempt_chain(&c));
  EXPECT_EQ(rl.acquire(0, rng, src, attempts), &c);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts), &b);
  EXPECT_EQ(rl.acquire(0, rng, src, attempts), &a);
  EXPECT_EQ(src, AcquireSource::Steal);
}

// --- IdleGate -----------------------------------------------------------------------

TEST(IdleGate, NotifyWakesSleeper) {
  IdleGate gate;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    std::uint64_t seen = gate.prepare_wait();
    gate.wait(seen, std::chrono::milliseconds(500));
    woke.store(true);
  });
  // Give the sleeper a moment to block, then notify.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.notify_all();
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(IdleGate, StaleEpochReturnsImmediately) {
  IdleGate gate;
  std::uint64_t seen = gate.prepare_wait();
  gate.notify_all();  // epoch moves past `seen`
  auto t0 = std::chrono::steady_clock::now();
  gate.wait(seen, std::chrono::milliseconds(500));
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

}  // namespace
}  // namespace smpss
