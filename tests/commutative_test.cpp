// Commutative/concurrent access-mode semantics: mutual exclusion without
// ordering (Dir::Commutative), per-worker privatized reductions
// (Dir::Concurrent), group lifecycle accounting, conflict-token acquire
// across multiple groups, and the PageRank mini-app's bit-exactness against
// its sequential oracle under both lowerings. Everything here is exact
// integer arithmetic, so "any member order" and "program order" must agree
// to the last bit — a lost update, torn RMW, double combine, or missed
// private shows up as a wrong number, not a flake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/pagerank.hpp"
#include "runtime/runtime.hpp"

namespace smpss {
namespace {

Config threads(unsigned n) {
  Config c;
  c.num_threads = n;
  return c;
}

/// A deliberately non-atomic read-modify-write with a widened race window:
/// only mutual exclusion makes `tasks * kSpin` additions exact.
void racy_add(std::int64_t* x, std::int64_t amount) {
  const std::int64_t before = *x;
  // Lengthen the read-to-write window so a broken token would actually
  // interleave members rather than passing by luck.
  volatile std::int64_t sink = 0;
  for (int i = 0; i < 64; ++i) sink = sink + i;
  (void)sink;
  *x = before + amount;
}

// --- mutual exclusion without ordering ----------------------------------------

TEST(Commutative, ExclusiveUnorderedIncrements) {
  Runtime rt(threads(4));
  std::int64_t x = 0;
  constexpr int kTasks = 400;
  for (int i = 0; i < kTasks; ++i)
    rt.spawn([](std::int64_t* p) { racy_add(p, 1); }, commutative(&x));
  rt.barrier();
  EXPECT_EQ(x, kTasks);
}

TEST(Commutative, ReaderAfterGroupSeesAllWrites) {
  Runtime rt(threads(4));
  std::int64_t x = 0, seen = -1;
  for (int i = 1; i <= 100; ++i)
    rt.spawn([i](std::int64_t* p) { racy_add(p, i); }, commutative(&x));
  // A plain read is a non-matching access: it seals the group and orders
  // after the close node, i.e. after *every* member.
  rt.spawn([](const std::int64_t* p, std::int64_t* o) { *o = *p; }, in(&x),
           out(&seen));
  rt.barrier();
  EXPECT_EQ(seen, 100 * 101 / 2);
  EXPECT_EQ(x, 100 * 101 / 2);
}

TEST(Commutative, ReopenAfterBarrier) {
  Runtime rt(threads(4));
  std::int64_t x = 0;
  for (int i = 0; i < 50; ++i)
    rt.spawn([](std::int64_t* p) { racy_add(p, 2); }, commutative(&x));
  rt.barrier();
  EXPECT_EQ(x, 100);
  for (int i = 0; i < 50; ++i)
    rt.spawn([](std::int64_t* p) { racy_add(p, 3); }, commutative(&x));
  rt.barrier();
  EXPECT_EQ(x, 250);
}

TEST(Commutative, WaitOnSealsGroup) {
  Runtime rt(threads(4));
  std::int64_t x = 0;
  for (int i = 0; i < 64; ++i)
    rt.spawn([](std::int64_t* p) { racy_add(p, 1); }, commutative(&x));
  rt.wait_on(&x);  // serialization point: must seal the open group
  EXPECT_EQ(x, 64);
  rt.barrier();
}

TEST(Commutative, NoRenamingAblation) {
  Config c = threads(4);
  c.renaming = false;
  Runtime rt(c);
  std::int64_t x = 0;
  for (int i = 0; i < 128; ++i)
    rt.spawn([](std::int64_t* p) { racy_add(p, 1); }, commutative(&x));
  rt.barrier();
  EXPECT_EQ(x, 128);
}

TEST(Commutative, NestedSubmitters) {
  Config c = threads(4);
  c.nested_tasks = true;
  Runtime rt(c);
  std::int64_t x = 0;
  Runtime* rtp = &rt;
  std::int64_t* xp = &x;
  // Eight parent tasks, serialized by nothing, each submitting 32 members
  // from whatever worker runs it: group open/join races the submission
  // pipeline.
  for (int g = 0; g < 8; ++g)
    rt.spawn([rtp, xp]() {
      for (int i = 0; i < 32; ++i)
        rtp->spawn([](std::int64_t* p) { racy_add(p, 1); }, commutative(xp));
    });
  rt.barrier();
  EXPECT_EQ(x, 8 * 32);
}

// Regression: barrier() used to seal every open group before it waited, so
// a group a running nested generator was still adding members to split in
// two. The generator adds one member, lets the main thread enter barrier(),
// gives a premature seal 200 ms to show up, then adds the second member:
// both belong to the one group that logically precedes the barrier.
TEST(Commutative, BarrierDoesNotSplitGroupOfRunningGenerator) {
  Config c = threads(2);
  c.nested_tasks = true;
  Runtime rt(c);
  std::int64_t x = 0;
  Runtime* rtp = &rt;
  std::int64_t* xp = &x;
  std::atomic<bool> started{false};
  rt.spawn([rtp, xp, &started]() {
    rtp->spawn([](std::int64_t* p) { racy_add(p, 1); }, commutative(xp));
    started.store(true, std::memory_order_release);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (rtp->stats().groups_closed == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    rtp->spawn([](std::int64_t* p) { racy_add(p, 2); }, commutative(xp));
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  rt.barrier();
  EXPECT_EQ(x, 3);
  const StatsSnapshot s = rt.stats();
  EXPECT_EQ(s.groups_opened, 1u) << "barrier() split the generator's group";
  EXPECT_EQ(s.groups_closed, 1u);
  EXPECT_EQ(s.group_joins, 2u);
}

// --- conflict tokens across groups ---------------------------------------------

TEST(Commutative, TwoTokensPerTask) {
  Runtime rt(threads(4));
  std::int64_t a = 0, b = 0;
  // Every task holds BOTH tokens (sorted acquire order prevents deadlock);
  // the two counters must always move in lockstep.
  for (int i = 0; i < 200; ++i)
    rt.spawn(
        [](std::int64_t* pa, std::int64_t* pb) {
          racy_add(pa, 1);
          racy_add(pb, 1);
        },
        commutative(&a), commutative(&b));
  rt.barrier();
  EXPECT_EQ(a, 200);
  EXPECT_EQ(b, 200);
}

TEST(Commutative, SameDatumTwiceDoesNotSelfDeadlock) {
  Runtime rt(threads(2));
  std::int64_t x = 0;
  // Both parameters name the same datum; the analyzer must dedupe the
  // token or the all-or-nothing acquire would block on itself forever.
  for (int i = 0; i < 32; ++i)
    rt.spawn(
        [](std::int64_t* p, std::int64_t* q) {
          EXPECT_EQ(p, q);
          racy_add(p, 1);
        },
        commutative(&x), commutative(&x));
  rt.barrier();
  EXPECT_EQ(x, 32);
}

// --- concurrent (privatized reduction) mode ------------------------------------

TEST(Concurrent, ReductionPlusExact) {
  Runtime rt(threads(4));
  std::int64_t sum = 0;
  for (int i = 1; i <= 1000; ++i)
    rt.spawn([i](std::int64_t* p) { *p += i; }, reduction(Plus{}, &sum));
  rt.barrier();
  EXPECT_EQ(sum, 1000 * 1001 / 2);
}

TEST(Concurrent, ReductionInheritsMasterValue) {
  Runtime rt(threads(4));
  std::int64_t sum = 1000000;  // pre-group value must survive the combine
  for (int i = 0; i < 100; ++i)
    rt.spawn([](std::int64_t* p) { *p += 1; }, reduction(Plus{}, &sum));
  rt.barrier();
  EXPECT_EQ(sum, 1000100);
}

TEST(Concurrent, ReductionMinMax) {
  Runtime rt(threads(4));
  std::int64_t lo = 1000, hi = -1000;
  for (int i = 0; i < 256; ++i) {
    const std::int64_t v = (i * 37) % 501 - 250;  // [-250, 250]
    rt.spawn(
        [v](std::int64_t* p) {
          if (v < *p) *p = v;
        },
        reduction(Min{}, &lo));
    rt.spawn(
        [v](std::int64_t* p) {
          if (v > *p) *p = v;
        },
        reduction(Max{}, &hi));
  }
  rt.barrier();
  std::int64_t want_lo = 1000, want_hi = -1000;
  for (int i = 0; i < 256; ++i) {
    const std::int64_t v = (i * 37) % 501 - 250;
    if (v < want_lo) want_lo = v;
    if (v > want_hi) want_hi = v;
  }
  EXPECT_EQ(lo, want_lo);
  EXPECT_EQ(hi, want_hi);
}

TEST(Concurrent, ReductionArray) {
  Runtime rt(threads(4));
  std::int64_t hist[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400; ++i)
    rt.spawn([i](std::int64_t* h) { h[i % 4] += 1; },
             reduction(Plus{}, hist, 4));
  rt.barrier();
  for (int k = 0; k < 4; ++k) EXPECT_EQ(hist[k], 100) << "bin " << k;
}

TEST(Concurrent, ReaderAfterReductionSeesCombinedValue) {
  Runtime rt(threads(4));
  std::int64_t sum = 0, seen = -1;
  for (int i = 0; i < 100; ++i)
    rt.spawn([](std::int64_t* p) { *p += 3; }, reduction(Plus{}, &sum));
  rt.spawn([](const std::int64_t* p, std::int64_t* o) { *o = *p; }, in(&sum),
           out(&seen));
  rt.barrier();
  EXPECT_EQ(seen, 300);
  EXPECT_EQ(sum, 300);
}

// --- lifecycle accounting -------------------------------------------------------

TEST(Commutative, GroupStatsAccounting) {
  Runtime rt(threads(4));
  std::int64_t x = 0, y = 0;
  for (int i = 0; i < 60; ++i)
    rt.spawn([](std::int64_t* p) { racy_add(p, 1); }, commutative(&x));
  for (int i = 0; i < 40; ++i)
    rt.spawn([](std::int64_t* p) { *p += 1; }, reduction(Plus{}, &y));
  rt.barrier();
  const StatsSnapshot s = rt.stats();
  EXPECT_EQ(s.groups_opened, 2u);
  EXPECT_EQ(s.groups_closed, 2u);
  EXPECT_EQ(s.group_joins, 100u);
  EXPECT_EQ(s.commute_edges, 100u);  // one member edge per join
}

TEST(Commutative, InoutLoweringOpensNoGroups) {
  Runtime rt(threads(4));
  std::int64_t x = 0;
  for (int i = 0; i < 60; ++i)
    rt.spawn([](std::int64_t* p) { racy_add(p, 1); }, inout(&x));
  rt.barrier();
  EXPECT_EQ(x, 60);
  const StatsSnapshot s = rt.stats();
  EXPECT_EQ(s.groups_opened, 0u);
  EXPECT_EQ(s.group_joins, 0u);
}

// --- the PageRank mini-app ------------------------------------------------------

void check_pagerank(Config cfg, bool use_commutative) {
  constexpr int kN = 192, kDegree = 4, kIters = 4, kBlock = 32;
  std::vector<std::int64_t> want(kN);
  apps::pagerank_init(kN, want.data());
  apps::pagerank_seq(kN, kDegree, kIters, want.data());

  std::vector<std::int64_t> ranks(kN), accum(kN, 0);
  apps::pagerank_init(kN, ranks.data());
  Runtime rt(cfg);
  const apps::PageRankTasks tt = apps::PageRankTasks::register_in(rt);
  apps::pagerank_smpss(rt, tt, kN, kDegree, kIters, kBlock, ranks.data(),
                       accum.data(), use_commutative);
  EXPECT_EQ(ranks, want) << "commutative=" << use_commutative;
  if (use_commutative) {
    const StatsSnapshot s = rt.stats();
    // One group per (iteration, destination block) accumulator.
    EXPECT_EQ(s.groups_opened, static_cast<std::uint64_t>(kIters) *
                                   (kN / kBlock));
    EXPECT_EQ(s.groups_closed, s.groups_opened);
  }
}

TEST(PageRank, CommutativeMatchesSequentialOracle) {
  check_pagerank(threads(4), /*use_commutative=*/true);
}
TEST(PageRank, InoutMatchesSequentialOracle) {
  check_pagerank(threads(4), /*use_commutative=*/false);
}
TEST(PageRank, SingleThreadCommutative) {
  check_pagerank(threads(1), /*use_commutative=*/true);
}
TEST(PageRank, RenamingOffCommutative) {
  Config c = threads(4);
  c.renaming = false;
  check_pagerank(c, /*use_commutative=*/true);
}
TEST(PageRank, SmallTaskWindow) {
  Config c = threads(4);
  c.task_window = 16;
  check_pagerank(c, /*use_commutative=*/true);
}

// --- spawn-time diagnostics ------------------------------------------------------

TEST(CommutativeDeath, ReductionWithoutRenamingAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ASSERT_DEATH(
      {
        Config c;
        c.num_threads = 1;
        c.renaming = false;
        Runtime rt(c);
        std::int64_t x = 0;
        rt.spawn([](std::int64_t* p) { *p += 1; }, reduction(Plus{}, &x));
        rt.barrier();
      },
      "require renaming");
}

}  // namespace
}  // namespace smpss
