// The concurrent submission pipeline: concurrent submitters against shared
// and private data, the foreign-thread blocking conditions, destruction off
// the constructing thread, and stats() racing submitters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

TEST(ShardSweep, ConcurrentSubmittersSharedAndPrivateData) {
  // Parents submit concurrently: private chains plus a shared fan-in datum
  // every parent contends on at its chain head.
  Config cfg;
  cfg.num_threads = 8;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  constexpr int kParents = 12, kSteps = 60;
  std::vector<long> lanes(kParents, 0);
  long total = 0;
  for (int p = 0; p < kParents; ++p) {
    rt.spawn(
        [&rt, &total](long* lane) {
          for (int i = 0; i < kSteps; ++i)
            rt.spawn([](long* q) { *q += 1; }, inout(lane));
          rt.taskwait();
          rt.spawn([](const long* l, long* t) { *t += *l; }, in(lane),
                   inout(&total));
        },
        inout(&lanes[p]));
  }
  rt.barrier();
  EXPECT_EQ(total, static_cast<long>(kParents) * kSteps);
  for (long v : lanes) ASSERT_EQ(v, kSteps);
  EXPECT_GE(rt.stats().raw_edges, static_cast<std::uint64_t>(kParents));
}

TEST(ShardSweep, MultiParamTasksAcrossShardsStayAcyclic) {
  // Tasks whose footprints span several data submitted from many threads
  // at once: if per-datum chain-head ordering were broken, the cross-datum
  // edge wiring could deadlock or corrupt a chain. The diamond pattern (two
  // inputs, one output per task) maximizes cross-datum edges.
  Config cfg;
  cfg.num_threads = 8;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  // Unsigned lanes: the values triple per round, so 40 rounds deliberately
  // wrap — defined for unsigned, and the oracle wraps identically (the new
  // UBSan CI leg rejects the signed variant).
  constexpr int kParents = 8, kRounds = 40;
  using lane_t = unsigned long;
  std::vector<lane_t> a(kParents, 1), b(kParents, 2), c(kParents, 0);
  for (int p = 0; p < kParents; ++p) {
    lane_t *pa = &a[p], *pb = &b[p], *pc = &c[p];
    rt.spawn([&rt, pa, pb, pc] {
      for (int r = 0; r < kRounds; ++r) {
        rt.spawn(
            [](const lane_t* x, const lane_t* y, lane_t* z) { *z = *x + *y; },
            in(pa), in(pb), out(pc));
        rt.spawn([](const lane_t* z, lane_t* x) { *x += *z; }, in(pc),
                 inout(pa));
        rt.spawn([](const lane_t* z, lane_t* y) { *y += *z; }, in(pc),
                 inout(pb));
      }
      rt.taskwait();
    });
  }
  rt.barrier();
  for (int p = 0; p < kParents; ++p) {
    lane_t xa = 1, xb = 2, xc = 0;
    for (int r = 0; r < kRounds; ++r) {
      xc = xa + xb;
      xa += xc;
      xb += xc;
    }
    ASSERT_EQ(a[p], xa);
    ASSERT_EQ(b[p], xb);
    ASSERT_EQ(c[p], xc);
  }
}

TEST(ForeignSubmitter, WindowThrottlesForeignThread) {
  // Regression: a foreign thread (not a worker, not the constructing
  // thread) used to bypass the task-window blocking condition entirely and
  // could grow the graph without bound. It must now sleep on the gate until
  // the live count drains below the low-water mark.
  Config cfg;
  cfg.num_threads = 2;
  cfg.task_window = 16;
  cfg.task_window_low = 8;
  cfg.nested_tasks = true;  // foreign threads submit real tasks
  Runtime rt(cfg);
  constexpr int kTasks = 3000;
  long x = 0;
  std::atomic<bool> done{false};
  // The chain's head task holds every later task back until the gate has
  // fired, so the live count reaches the window whatever the workers'
  // speed. A regression that never throttles times out here and fails the
  // throttle assertion below instead of hanging.
  std::atomic<bool> opened{false};
  std::thread foreign([&] {
    rt.spawn(
        [&opened](long*) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!opened.load() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        },
        inout(&x));
    for (int i = 0; i < kTasks; ++i)
      rt.spawn([](long* p) { *p += 1; }, inout(&x));
    done.store(true, std::memory_order_release);
  });
  // Sample the live-task high-water mark while the foreign thread submits.
  std::size_t max_live = 0;
  while (!done.load(std::memory_order_acquire)) {
    max_live = std::max(max_live, rt.live_tasks());
    if (!opened.load() && rt.stats().foreign_throttled >= 1)
      opened.store(true);
    std::this_thread::yield();
  }
  opened.store(true);
  foreign.join();
  rt.barrier();
  EXPECT_EQ(x, kTasks);
  EXPECT_GE(rt.stats().foreign_throttled, 1u);
  // Pre-fix this reached ~kTasks; the gate bounds it near the window (plus
  // submissions racing the threshold check).
  EXPECT_LE(max_live, cfg.task_window + 64);
}

TEST(ForeignSubmitter, SingleThreadRuntimeNeverGatesForeignSubmitter) {
  // Liveness: with num_threads == 1 there is no independent executor, and
  // the main thread here is blocked in join() — gating the foreign
  // submitter would deadlock both threads. The window must stay soft.
  Config cfg;
  cfg.num_threads = 1;
  cfg.task_window = 8;
  cfg.task_window_low = 4;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  long x = 0;
  std::thread foreign([&] {
    for (int i = 0; i < 200; ++i)
      rt.spawn([](long* p) { *p += 1; }, inout(&x));
  });
  foreign.join();
  rt.barrier();
  EXPECT_EQ(x, 200);
  EXPECT_EQ(rt.stats().foreign_throttled, 0u);
}

TEST(ForeignSubmitter, MemoryLimitThrottlesForeignThread) {
  Config cfg;
  cfg.num_threads = 2;
  cfg.nested_tasks = true;
  cfg.rename_memory_limit = 1 << 16;  // 64 KiB
  Runtime rt(cfg);
  constexpr std::size_t kObj = 1 << 12;  // 4 KiB renames
  std::vector<char> buf(kObj, 0);
  long sink = 0;
  std::thread foreign([&] {
    for (int i = 0; i < 200; ++i) {
      rt.spawn([](const char* p, long* s) { *s += p[0]; }, in(buf.data(), kObj),
               inout(&sink));
      rt.spawn([i](char* p) { p[0] = static_cast<char>(i); },
               out(buf.data(), kObj));
    }
  });
  foreign.join();
  rt.barrier();
  EXPECT_EQ(buf[0], static_cast<char>(199));
  // The soft limit must have held within one allocation of slack.
  EXPECT_LE(rt.rename_pool().peak_bytes(), cfg.rename_memory_limit + kObj);
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
}

TEST(OffMainDestruction, DestructorDrainsOnForeignThread) {
  // Regression: ~Runtime on a non-constructing thread used to abort with
  // barrier()'s "main-thread-only" diagnostic. It now drains, realigns
  // renamed data, and joins the workers.
  constexpr int kTasks = 500;
  std::vector<int> xs(kTasks, 0);
  int probe = 0;
  auto rt = std::make_unique<Runtime>([] {
    Config c;
    c.num_threads = 4;
    return c;
  }());
  // A pending reader forces the writes into renamed storage, so destruction
  // must also prove the copy-back path runs.
  rt->spawn([](const int* p, int* o) { *o = *p; }, in(&xs[0]), out(&probe));
  for (int i = 0; i < kTasks; ++i)
    rt->spawn([i](int* p) { *p = i + 1; }, out(&xs[i]));
  std::thread destroyer([&] { rt.reset(); });
  destroyer.join();
  for (int i = 0; i < kTasks; ++i) ASSERT_EQ(xs[i], i + 1);
}

TEST(OffMainDestruction, NestedRuntimeDestroyedOffMain) {
  auto rt = std::make_unique<Runtime>([] {
    Config c;
    c.num_threads = 4;
    c.nested_tasks = true;
    return c;
  }());
  std::atomic<long> count{0};
  // The task body uses the raw pointer: the destructor drains all live
  // tasks (this generator included) before the object goes away, but the
  // unique_ptr *handle* must not be read concurrently with reset().
  Runtime* r = rt.get();
  r->spawn([r, &count] {
    for (int i = 0; i < 100; ++i)
      r->spawn([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    r->taskwait();
  });
  std::thread destroyer([&] { rt.reset(); });
  destroyer.join();
  EXPECT_EQ(count.load(), 100);
}

TEST(OffMainDestruction, NestedGeneratorsUnderTinyWindowSingleThread) {
  // The destroying thread registers as worker 0 for the drain, so the
  // generator bodies it executes submit and taskwait as normal in-task
  // workers (never-sleeping throttle, own-list children) — with one thread
  // and a tiny window, any sleeping misstep here deadlocks immediately.
  auto rt = std::make_unique<Runtime>([] {
    Config c;
    c.num_threads = 1;
    c.nested_tasks = true;
    c.task_window = 4;
    c.task_window_low = 2;
    return c;
  }());
  std::atomic<long> count{0};
  Runtime* r = rt.get();
  for (int g = 0; g < 3; ++g) {
    r->spawn([r, &count] {
      for (int i = 0; i < 50; ++i)
        r->spawn([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      r->taskwait();
    });
  }
  std::thread destroyer([&] { rt.reset(); });
  destroyer.join();
  EXPECT_EQ(count.load(), 150);
}

TEST(ConcurrentIntrospection, StatsAndWaitOnRaceSubmitters) {
  // stats() and wait_on() synchronize per shard / on the region rwlock;
  // calling them while generators are mid-submission must be well-defined
  // (this is primarily a TSan target) and end with consistent totals.
  Config cfg;
  cfg.num_threads = 4;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  constexpr int kParents = 4, kChildren = 300;
  std::vector<long> lanes(kParents, 0);
  for (int p = 0; p < kParents; ++p) {
    rt.spawn(
        [&rt](long* lane) {
          for (int i = 0; i < kChildren; ++i)
            rt.spawn([](long* q) { *q += 1; }, inout(lane));
          rt.taskwait();
        },
        inout(&lanes[p]));
  }
  std::uint64_t last_spawned = 0;
  for (int i = 0; i < 50; ++i) {
    StatsSnapshot s = rt.stats();
    EXPECT_GE(s.tasks_spawned, last_spawned);  // monotone under the race
    last_spawned = s.tasks_spawned;
    std::this_thread::yield();
  }
  rt.wait_on(&lanes[0]);  // produced prefix of the chain, any value is fine
  rt.barrier();
  for (long v : lanes) ASSERT_EQ(v, kChildren);
  StatsSnapshot s = rt.stats();
  EXPECT_EQ(s.tasks_nested, static_cast<std::uint64_t>(kParents) * kChildren);
}

TEST(ConcurrentIntrospection, WaitOnDuringNestedDrainKeepsTotal) {
  // wait_on() copy-backs probe the datum's user tail while generators are
  // still submitting write chains into it from worker threads: the pin
  // forces those writers to rename, and the copy-back must never land
  // under an in-place producer or lose an update. This interleaving —
  // wait_on hammering a datum whose generator is mid-drain — once tripped
  // a misordered retire-side decrement of the wait_on quiescence state.
  Config cfg;
  cfg.num_threads = 4;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  constexpr int kRounds = 40, kWrites = 25;
  long x = 0;
  for (int r = 0; r < kRounds; ++r) {
    rt.spawn([&rt, &x] {
      for (int i = 0; i < kWrites; ++i)
        rt.spawn([](long* p) { *p += 1; }, inout(&x));
    });
    // Races the generator's still-submitting chain. The copied-back value
    // is some produced prefix; it cannot be read here without racing a
    // later in-place producer, so the checked outcome is the final total
    // (plus TSan on the tail probe and the copy-back).
    rt.wait_on(&x);
  }
  rt.barrier();
  ASSERT_EQ(x, static_cast<long>(kRounds) * kWrites);
}

TEST(ConcurrentIntrospection, SnapshotNeverShowsExecutedAboveSpawned) {
  // Regression: stats() used to sum the counters in submission order
  // (spawned first, executed last), so a snapshot racing the workers could
  // report tasks_executed > tasks_spawned — impossible totals that broke
  // rate computation in the exporter. The snapshot now reads the
  // executed-side counters first and spawned last (with an epoch retry), so
  // executed <= spawned holds in every snapshot, no matter the race.
  Config cfg;
  cfg.num_threads = 4;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  constexpr int kSubmitters = 3, kTasks = 2000;
  std::vector<long> lanes(kSubmitters, 0);
  std::vector<std::thread> subs;
  for (int p = 0; p < kSubmitters; ++p)
    subs.emplace_back([&rt, lane = &lanes[p]] {
      for (int i = 0; i < kTasks; ++i)
        rt.spawn([](long* q) { *q += 1; }, inout(lane));
    });
  std::uint64_t last_epoch = 0;
  int consistent = 0, total = 0;
  while (rt.stats().tasks_executed <
         static_cast<std::uint64_t>(kSubmitters) * kTasks) {
    StatsSnapshot s = rt.stats();
    ++total;
    ASSERT_LE(s.tasks_executed, s.tasks_spawned)
        << "snapshot " << total << " shows impossible totals";
    ASSERT_GE(s.snapshot_epoch, last_epoch) << "epoch went backwards";
    last_epoch = s.snapshot_epoch;
    if (s.snapshot_consistent) {
      ++consistent;
      EXPECT_EQ(s.snapshot_epoch, s.tasks_spawned);
    }
  }
  for (auto& t : subs) t.join();
  rt.barrier();
  // Quiescent snapshots always win their epoch check.
  StatsSnapshot s = rt.stats();
  EXPECT_TRUE(s.snapshot_consistent);
  EXPECT_EQ(s.tasks_executed, s.tasks_spawned);
  EXPECT_GT(consistent, 0) << "no snapshot ever stabilized in " << total
                           << " attempts";
}

}  // namespace
}  // namespace smpss
