// Fairness of service-mode admission: the weighted deficit-round-robin unit
// semantics (deterministic, scripted token release — safe on a 1-core CI
// runner), the trickle-vs-greedy starvation guarantee on a real runtime,
// and the per-stream throttled splits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "sched/admission.hpp"

namespace smpss {
namespace {

// Scripted DRR: two tickets (weight 2 vs 1), one admitting thread each, and
// the main thread releasing exactly one slot at a time — only once both
// threads are blocked in admit(), so every grant decision is made with both
// tenants queued. The grant sequence must then follow the 2:1 deficit
// rotation: in every prefix, |granted_a - 2 * granted_b| <= 2.
TEST(AdmissionFairness, WeightedDeficitRoundRobinDeterministic) {
  AdmissionControl adm;
  AdmissionTicket ta, tb;
  ta.weight = 2;
  tb.weight = 1;
  constexpr int kA = 40, kB = 20;  // 2:1, so both finish together
  std::atomic<int> tokens{0};
  std::atomic<int> returned_a{0}, returned_b{0};
  std::mutex order_mu;
  std::vector<char> order;
  auto client = [&](AdmissionTicket& t, char id, int n) {
    std::atomic<int>& returned = id == 'a' ? returned_a : returned_b;
    for (int i = 0; i < n; ++i) {
      adm.admit(t, [&]() -> AdmitProbe {
        // Only the ring head probes (under the admission mutex), so the
        // token take needs no CAS. Record the grant BEFORE decrementing:
        // the main thread keys its both-clients-queued wait off the order
        // log once tokens reads zero.
        if (tokens.load() == 0) return AdmitProbe::GlobalFull;
        {
          std::lock_guard<std::mutex> lk(order_mu);
          order.push_back(id);
        }
        tokens.fetch_sub(1);
        return AdmitProbe::Taken;
      });
      returned.fetch_add(1);
    }
  };
  std::thread a(client, std::ref(ta), 'a', kA);
  std::thread b(client, std::ref(tb), 'b', kB);
  for (int granted = 0; granted < kA + kB; ++granted) {
    // Wait until every still-running client is blocked in admit() before
    // releasing the next slot, so the head choice is never a timing race.
    // The last grantee counts as a waiter until it leaves admit(), and a
    // head ticket with no thread inside admit() loses its turn; so first
    // wait for every grantee to have returned, then for the re-entries.
    std::uint32_t expect_waiters = 0;
    int na = 0, nb = 0;
    {
      std::lock_guard<std::mutex> lk(order_mu);
      for (char c : order) (c == 'a' ? na : nb)++;
      expect_waiters = (na < kA ? 1u : 0u) + (nb < kB ? 1u : 0u);
    }
    while (returned_a.load() < na || returned_b.load() < nb)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    while (adm.waiters() < expect_waiters)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    tokens.fetch_add(1);
    adm.notify();
    while (tokens.load() != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  a.join();
  b.join();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kA + kB));
  int na = 0, nb = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    (order[i] == 'a' ? na : nb)++;
    const long diff = static_cast<long>(na) - 2L * nb;
    ASSERT_LE(diff, 2) << "prefix " << i << ": a ran too far ahead";
    ASSERT_GE(diff, -2) << "prefix " << i << ": b ran too far ahead";
  }
  EXPECT_EQ(na, kA);
  EXPECT_EQ(nb, kB);
  adm.remove(ta);
  adm.remove(tb);
}

// Single-threaded: a lone ticket whose probe reports SelfFull (its own
// window is the blocker) must not spin under the mutex — the forfeit path
// falls through to the bounded wait and re-probes until the limit clears.
TEST(AdmissionFairness, LoneSelfFullStreamMakesProgress) {
  AdmissionControl adm;
  AdmissionTicket t;
  int probes = 0;
  adm.admit(t, [&]() -> AdmitProbe {
    return ++probes < 3 ? AdmitProbe::SelfFull : AdmitProbe::Taken;
  });
  EXPECT_EQ(probes, 3);
  EXPECT_EQ(adm.waiters(), 0u);
  adm.remove(t);
}

// Tickets persist in the ring between admissions; turns pass over idle
// tickets. A single thread alternately admitting through two tickets (both
// always Taken) must never hang on the idle peer. 1-core-safe.
TEST(AdmissionFairness, IdleHeadsAreSkipped) {
  AdmissionControl adm;
  AdmissionTicket ta, tb;
  tb.weight = 3;
  for (int i = 0; i < 50; ++i) {
    adm.admit(ta, [] { return AdmitProbe::Taken; });
    adm.admit(tb, [] { return AdmitProbe::Taken; });
  }
  EXPECT_EQ(adm.waiters(), 0u);
  adm.remove(ta);
  adm.remove(tb);
}

// A greedy stream hammering a tight shared window from its own thread must
// not starve a trickle stream: every trickle submission gets admitted in
// bounded time (generous bound — CI runners are slow), and the throttle
// counts split per stream.
TEST(AdmissionFairness, TrickleStreamNotStarvedByGreedy) {
  if (std::thread::hardware_concurrency() < 3)
    GTEST_SKIP() << "needs >= 3 hardware threads for a meaningful race";
  Config cfg;
  cfg.num_threads = 3;
  cfg.nested_tasks = true;
  cfg.task_window = 32;  // tight: the greedy client saturates it
  Runtime rt(cfg);
  StreamHandle greedy = rt.open_stream({.name = "greedy"});
  StreamHandle trickle = rt.open_stream({.name = "trickle"});
  std::atomic<bool> stop{false};
  long g_cell = 0, t_cell = 0;
  std::thread g([&] {
    // The chain's head holds every later greedy task back until the stream
    // has queued, so the greedy client saturates the window whatever the
    // workers' speed. A regression that never queues times out here and
    // fails the throttled check below instead of hanging.
    auto* gs = greedy.state();
    greedy.post(
        [gs](long* c) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (gs->throttled.load() == 0 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
          *c += 1;
        },
        inout(&g_cell));
    while (!stop.load(std::memory_order_relaxed))
      greedy.post([](long* c) { *c += 1; }, inout(&g_cell));
    greedy.drain();
  });
  constexpr int kTrickle = 100;
  std::int64_t worst_admit_ns = 0;
  std::thread t([&] {
    for (int i = 0; i < kTrickle; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      trickle.post([](long* c) { *c += 1; }, inout(&t_cell));
      const auto dt = std::chrono::steady_clock::now() - t0;
      worst_admit_ns = std::max<std::int64_t>(
          worst_admit_ns,
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    trickle.drain();
  });
  t.join();
  stop.store(true);
  g.join();
  EXPECT_EQ(trickle.state()->retired.load(), kTrickle);
  // Starvation bound: with round-robin admission a trickle submit waits for
  // at most a few greedy grants, each bounded by task retire time. 2 s per
  // admission would mean the old free-for-all gate behavior (unbounded —
  // the greedy client re-takes every freed slot).
  EXPECT_LT(worst_admit_ns, 2'000'000'000LL);
  const StatsSnapshot st = rt.stats();
  ASSERT_EQ(st.streams.size(), 2u);
  // The greedy stream outran the window, so it did queue; the split is per
  // stream, and the totals line up.
  EXPECT_GT(st.streams[0].throttled, 0u);
  EXPECT_EQ(st.streams[0].throttled + st.streams[1].throttled,
            st.stream_throttled);
  rt.barrier();
  EXPECT_EQ(t_cell, kTrickle);
  EXPECT_EQ(g_cell, static_cast<long>(st.streams[0].retired));
}

// Per-stream windows throttle only their own stream: the capped stream
// queues (throttled > 0), its sibling never does.
TEST(AdmissionFairness, PerStreamWindowThrottlesOnlyItself) {
  Config cfg;
  cfg.num_threads = 2;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  StreamHandle capped = rt.open_stream({.name = "capped", .task_window = 2});
  StreamHandle free_s = rt.open_stream({.name = "free"});
  long c0 = 0, c1 = 0;
  std::thread tc([&] {
    // The chain's head holds the capped stream back until it has queued,
    // so the 2-deep window fills whatever the workers' speed (a slow
    // submitter, as under TSan, used to leave it unfilled).
    auto* cs = capped.state();
    capped.post(
        [cs](long* c) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (cs->throttled.load() == 0 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
          *c += 1;
        },
        inout(&c0));
    for (int i = 1; i < 200; ++i)
      capped.post([](long* c) { *c += 1; }, inout(&c0));
    capped.drain();
  });
  std::thread tf([&] {
    for (int i = 0; i < 200; ++i)
      free_s.post([](long* c) { *c += 1; }, inout(&c1));
    free_s.drain();
  });
  tc.join();
  tf.join();
  const StatsSnapshot st = rt.stats();
  ASSERT_EQ(st.streams.size(), 2u);
  EXPECT_GT(st.streams[0].throttled, 0u) << "2-deep window never filled?";
  EXPECT_EQ(st.streams[0].retired, 200u);
  EXPECT_EQ(st.streams[1].retired, 200u);
  rt.barrier();
  EXPECT_EQ(c0, 200);
  EXPECT_EQ(c1, 200);
}

// Weighted streams: both saturate, the heavier one gets more grants while
// both are queued. Correctness assertion only (counts), not timing: both
// must finish, and the per-stream latency histograms must have recorded
// every task.
TEST(AdmissionFairness, WeightedStreamsBothComplete) {
  Config cfg;
  cfg.num_threads = 4;
  cfg.nested_tasks = true;
  cfg.task_window = 16;
  Runtime rt(cfg);
  StreamHandle heavy = rt.open_stream({.name = "heavy", .weight = 4});
  StreamHandle light = rt.open_stream({.name = "light", .weight = 1});
  constexpr int kEach = 500;
  long h_cell = 0, l_cell = 0;
  std::thread th([&] {
    for (int i = 0; i < kEach; ++i)
      heavy.post([](long* c) { *c += 1; }, inout(&h_cell));
    heavy.drain();
  });
  std::thread tl([&] {
    for (int i = 0; i < kEach; ++i)
      light.post([](long* c) { *c += 1; }, inout(&l_cell));
    light.drain();
  });
  th.join();
  tl.join();
  EXPECT_EQ(heavy.state()->latency.count(), kEach);
  EXPECT_EQ(light.state()->latency.count(), kEach);
  rt.barrier();
  EXPECT_EQ(h_cell, kEach);
  EXPECT_EQ(l_cell, kEach);
}

}  // namespace
}  // namespace smpss
