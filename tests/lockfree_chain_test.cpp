// Targeted races for the lock-free version-chain publication path: reader
// registration racing a retiring writer's in-place-reuse decision, version
// reclamation under churn far beyond the slab-pool cache (slot recycling
// while readers still hold pins), and the lockfree_cas_retries stats
// plumbing. These are primarily TSan targets — the CI thread-sanitizer legs
// run this suite with nested submitters — but every test also checks a
// deterministic final image.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

Config nested_config() {
  Config cfg;
  cfg.num_threads = 8;
  cfg.nested_tasks = true;
  return cfg;
}

// Regression (memory ordering): Version::register_reader used to bump the
// pending-reader count with a relaxed store that the retiring writer's
// acquire probe was not guaranteed to observe, so a writer deciding storage
// reuse concurrently with a just-registered reader could take the user
// buffer in place and overwrite it under the reader. The registration
// increment and the writer's probe are now a seq_cst Dekker pair: either
// the writer sees the reader (and renames) or the reader's validation sees
// the writer's published version (and re-pins). A miss shows up two ways:
// TSan flags the storage write racing the read, and the seq/mirror
// invariant below breaks (the reader observes a half-applied update).
TEST(LockfreeChain, ReaderRegistrationRacesRetiringWriter) {
  Config cfg = nested_config();
  Runtime rt(cfg);
  struct Cell {
    long seq;
    long mirror;  // writers keep mirror == seq; readers check it
  };
  Cell c{0, 0};
  constexpr int kWrites = 1200, kReaderGens = 4, kReads = 400;
  std::atomic<long> torn{0};
  rt.spawn([&rt, &c] {
    for (int i = 0; i < kWrites; ++i)
      rt.spawn(
          [](Cell* p) {
            p->seq += 1;
            p->mirror += 1;
          },
          inout(&c));
  });
  for (int g = 0; g < kReaderGens; ++g) {
    rt.spawn([&rt, &c, &torn] {
      for (int i = 0; i < kReads; ++i)
        rt.spawn(
            [&torn](const Cell* p) {
              if (p->seq != p->mirror)
                torn.fetch_add(1, std::memory_order_relaxed);
            },
            in(&c));
    });
  }
  rt.barrier();
  EXPECT_EQ(torn.load(), 0) << "a reader saw a half-applied in-place write";
  EXPECT_EQ(c.seq, kWrites);
  EXPECT_EQ(c.mirror, kWrites);
}

// Version churn far beyond the pool cache: every round retires two versions
// per lane, so slab slots recycle constantly while concurrent readers and
// wait_on pins race the final release of the versions they read. A
// reclamation bug (freeing under a pin, or resurrecting a recycled slot's
// reference cell inconsistently) corrupts a lane total or trips the
// debug-build refcount asserts; under TSan the use-after-free is flagged
// directly.
TEST(LockfreeChain, ReclamationHammerUnderSlotRecycling) {
  Config cfg = nested_config();
  cfg.pool_cache = 2;  // tiny per-slot caches: recycling from round one
  Runtime rt(cfg);
  constexpr int kLanes = 8, kRounds = 400;
  std::array<long, kLanes> lanes{};
  std::atomic<long> misreads{0};
  for (int g = 0; g < kLanes; ++g) {
    rt.spawn([&rt, &misreads, p = &lanes[g]] {
      for (int i = 0; i < kRounds; ++i) {
        rt.spawn([](long* q) { *q += 1; }, inout(p));
        rt.spawn(
            [&misreads, i](const long* q) {
              // The pinned version holds at least this round's increment
              // and never more than the lane total.
              if (*q < i + 1 || *q > kRounds)
                misreads.fetch_add(1, std::memory_order_relaxed);
            },
            in(p));
      }
    });
  }
  // Main thread pins latest versions from outside while they are dying.
  for (int i = 0; i < 200; ++i) rt.wait_on(&lanes[i % kLanes]);
  rt.barrier();
  EXPECT_EQ(misreads.load(), 0);
  for (long v : lanes) ASSERT_EQ(v, kRounds);
}

TEST(LockfreeStats, CasRetryCounterPlumbed) {
  // The retry counter is a striped sum: it must survive the snapshot path
  // and the JSON exporter. Retries under concurrent submitters are
  // scheduling-dependent, so only the plumbing is asserted here.
  Config cfg = nested_config();
  cfg.num_threads = 4;
  Runtime rt(cfg);
  long shared = 0;
  for (int g = 0; g < 4; ++g)
    rt.spawn([&rt, &shared] {
      for (int i = 0; i < 200; ++i)
        rt.spawn([](long* p) { *p += 1; }, inout(&shared));
    });
  rt.barrier();
  EXPECT_EQ(shared, 800);
  const std::string json = rt.stats_json();
  EXPECT_NE(json.find("\"lockfree_cas_retries\":"), std::string::npos);
}

TEST(LockfreeStats, SingleSubmitterNeverRetries) {
  // With one submitter nobody else ever swings a chain head, so neither the
  // writers' publication CAS nor the readers' pin validation (nor the
  // wait_on pin) can lose a race: the counter must stay exactly zero.
  Config cfg;
  cfg.num_threads = 4;
  Runtime rt(cfg);
  long a = 0, b = 0;
  for (int i = 0; i < 300; ++i) {
    rt.spawn([](long* p) { *p += 1; }, inout(&a));
    rt.spawn([](const long* p, long* q) { *q = *p; }, in(&a), out(&b));
    if (i % 100 == 0) rt.wait_on(&b);
  }
  rt.barrier();
  EXPECT_EQ(a, 300);
  EXPECT_EQ(b, 300);
  EXPECT_EQ(rt.stats().lockfree_cas_retries, 0u);
}

}  // namespace
}  // namespace smpss
