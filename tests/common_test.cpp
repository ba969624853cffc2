// Unit tests for the common substrate: small_vector, aligned allocation,
// memory accounting, RNG determinism, env parsing, spin primitives, and the
// fork-join thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned_alloc.hpp"
#include "common/affinity.hpp"
#include "common/cache.hpp"
#include "common/env.hpp"
#include "common/memcopy.hpp"
#include "common/rng.hpp"
#include "common/small_vector.hpp"
#include "common/spin.hpp"
#include "common/thread_pool.hpp"
#include "common/timing.hpp"
#include "runtime/config.hpp"

namespace smpss {
namespace {

// --- cache/alignment helpers ---------------------------------------------------

TEST(Cache, AlignUp) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_up(127, 8), 128u);
}

TEST(Cache, IsAligned) {
  alignas(64) char buf[128];
  EXPECT_TRUE(is_aligned(buf, 64));
  EXPECT_FALSE(is_aligned(buf + 1, 2));
  EXPECT_TRUE(is_aligned(buf + 8, 8));
}

// --- aligned allocation -------------------------------------------------------

TEST(AlignedAlloc, ReturnsAlignedPointers) {
  for (std::size_t align : {8u, 16u, 64u, 128u, 4096u}) {
    void* p = aligned_alloc_bytes(100, align);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(is_aligned(p, align));
    aligned_free_bytes(p);
  }
}

TEST(AlignedAlloc, ZeroSizeGivesUsablePointer) {
  void* p = aligned_alloc_bytes(0, 64);
  ASSERT_NE(p, nullptr);
  aligned_free_bytes(p);
}

TEST(MemoryAccountant, TracksCurrentPeakTotal) {
  MemoryAccountant acc;
  acc.add(100);
  acc.add(50);
  EXPECT_EQ(acc.current(), 150u);
  EXPECT_EQ(acc.peak(), 150u);
  acc.sub(120);
  EXPECT_EQ(acc.current(), 30u);
  EXPECT_EQ(acc.peak(), 150u);
  acc.add(10);
  EXPECT_EQ(acc.total(), 160u);
  EXPECT_EQ(acc.peak(), 150u);
}

TEST(MemoryAccountant, ConcurrentAddsBalance) {
  MemoryAccountant acc;
  constexpr int kThreads = 8, kOps = 10000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&acc] {
      for (int i = 0; i < kOps; ++i) {
        acc.add(16);
        acc.sub(16);
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(acc.current(), 0u);
  EXPECT_EQ(acc.total(), static_cast<std::size_t>(kThreads) * kOps * 16);
}

// --- small_vector ---------------------------------------------------------------

TEST(SmallVector, StaysInlineWithinCapacity) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, SpillsToHeapAndKeepsContents) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i * 3);
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 3);
}

TEST(SmallVector, PopBackAndClear) {
  SmallVector<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.back(), 1);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, MoveFromInline) {
  SmallVector<std::string, 4> a;
  a.push_back("hello");
  a.push_back("world");
  SmallVector<std::string, 4> b(std::move(a));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], "hello");
  EXPECT_EQ(b[1], "world");
  EXPECT_TRUE(a.empty());
}

TEST(SmallVector, MoveFromHeapStealsBuffer) {
  SmallVector<std::string, 2> a;
  for (int i = 0; i < 20; ++i) a.push_back("s" + std::to_string(i));
  SmallVector<std::string, 2> b(std::move(a));
  ASSERT_EQ(b.size(), 20u);
  EXPECT_EQ(b[19], "s19");
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(a.is_inline());  // donor reset to inline state
}

TEST(SmallVector, MoveAssignReplacesContents) {
  SmallVector<int, 2> a, b;
  a.push_back(1);
  for (int i = 0; i < 10; ++i) b.push_back(i);
  a = std::move(b);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a[9], 9);
}

TEST(SmallVector, DestroysElements) {
  static int live = 0;
  struct Probe {
    Probe() { ++live; }
    Probe(const Probe&) { ++live; }
    Probe(Probe&&) noexcept { ++live; }
    ~Probe() { --live; }
  };
  {
    SmallVector<Probe, 2> v;
    for (int i = 0; i < 10; ++i) v.emplace_back();
    EXPECT_EQ(live, 10);
  }
  EXPECT_EQ(live, 0);
}

TEST(SmallVector, IterationMatchesIndexing) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 45);
}

// --- RNG --------------------------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Xoshiro, FloatInUnitInterval) {
  Xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) {
    float f = r.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Xoshiro, NextBelowInRange) {
  Xoshiro256 r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

// --- env --------------------------------------------------------------------------

TEST(Env, ParsesIntsAndBools) {
  ::setenv("SMPSS_TEST_INT", "42", 1);
  ::setenv("SMPSS_TEST_BOOL1", "true", 1);
  ::setenv("SMPSS_TEST_BOOL0", "off", 1);
  ::setenv("SMPSS_TEST_JUNK", "zzz", 1);
  EXPECT_EQ(env_int("SMPSS_TEST_INT").value(), 42);
  EXPECT_TRUE(env_bool("SMPSS_TEST_BOOL1").value());
  EXPECT_FALSE(env_bool("SMPSS_TEST_BOOL0").value());
  EXPECT_FALSE(env_bool("SMPSS_TEST_JUNK").has_value());
  EXPECT_FALSE(env_int("SMPSS_TEST_MISSING_XYZ").has_value());
  ::unsetenv("SMPSS_TEST_INT");
  ::unsetenv("SMPSS_TEST_BOOL1");
  ::unsetenv("SMPSS_TEST_BOOL0");
  ::unsetenv("SMPSS_TEST_JUNK");
}

/// Value of env_int/env_bool for `value`, plus whatever it printed to stderr.
template <typename Parse>
auto parse_with_stderr(const char* value, Parse parse, std::string& err) {
  ::setenv("SMPSS_TEST_MALFORMED", value, 1);
  ::testing::internal::CaptureStderr();
  auto v = parse("SMPSS_TEST_MALFORMED");
  err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("SMPSS_TEST_MALFORMED");
  return v;
}

TEST(Env, MalformedIntRejectedWholeWithOneDiagnostic) {
  // Regression: strtoll stopped at the first non-digit, so "3x" parsed as 3.
  for (const char* bad : {"3x", "abc", " 7 ", "4.5", "99999999999999999999"}) {
    std::string err;
    EXPECT_FALSE(parse_with_stderr(bad, env_int, err).has_value()) << bad;
    EXPECT_NE(err.find("SMPSS_TEST_MALFORMED"), std::string::npos) << err;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
  std::string err;
  EXPECT_EQ(parse_with_stderr("-12", env_int, err).value(), -12);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(Env, MalformedBoolRejectedWithOneDiagnostic) {
  std::string err;
  EXPECT_FALSE(parse_with_stderr("maybe", env_bool, err).has_value());
  EXPECT_NE(err.find("SMPSS_TEST_MALFORMED=\"maybe\""), std::string::npos)
      << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_TRUE(parse_with_stderr("YES", env_bool, err).value());
  EXPECT_TRUE(err.empty()) << err;
}

TEST(Env, MalformedConfigValueKeepsDefault) {
  const Config defaults;
  ::setenv("SMPSS_NUM_THREADS", "3x", 1);
  ::setenv("SMPSS_RENAMING", "nope", 1);
  ::testing::internal::CaptureStderr();
  const Config c = Config::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("SMPSS_NUM_THREADS");
  ::unsetenv("SMPSS_RENAMING");
  EXPECT_EQ(c.num_threads, defaults.num_threads);
  EXPECT_EQ(c.renaming, defaults.renaming);
  EXPECT_NE(err.find("SMPSS_NUM_THREADS=\"3x\""), std::string::npos) << err;
  EXPECT_NE(err.find("SMPSS_RENAMING=\"nope\""), std::string::npos) << err;
}

/// Config::from_env() under `vars` (set, then unset), plus its stderr.
Config from_env_with(
    std::initializer_list<std::pair<const char*, const char*>> vars,
    std::string& err) {
  for (const auto& [name, value] : vars) ::setenv(name, value, 1);
  ::testing::internal::CaptureStderr();
  Config c = Config::from_env();
  err = ::testing::internal::GetCapturedStderr();
  for (const auto& [name, value] : vars) ::unsetenv(name);
  return c;
}

std::size_t occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + 1))
    ++n;
  return n;
}

TEST(Env, ChoiceSettingsParse) {
  std::string err;
  const Config c = from_env_with({{"SMPSS_SCHEDULER", "centralized"},
                                  {"SMPSS_STEAL_ORDER", "random"}},
                                 err);
  EXPECT_EQ(c.scheduler_mode, SchedulerMode::Centralized);
  EXPECT_EQ(c.steal_order, StealOrder::Random);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(Env, UnknownChoiceRejectedWithOneDiagnostic) {
  // Regression: an unknown value used to be ignored silently, so a typo
  // like SMPSS_SCHEDULER=central ran the distributed scheduler.
  const Config defaults;
  std::string err;
  const Config c = from_env_with({{"SMPSS_SCHEDULER", "central"},
                                  {"SMPSS_STEAL_ORDER", "Random"}},
                                 err);
  EXPECT_EQ(c.scheduler_mode, defaults.scheduler_mode);
  EXPECT_EQ(c.steal_order, defaults.steal_order);
  for (const char* line :
       {"smpss: ignoring SMPSS_SCHEDULER=\"central\" "
        "(expected distributed|centralized)\n",
        "smpss: ignoring SMPSS_STEAL_ORDER=\"Random\" "
        "(expected creation|random)\n"})
    EXPECT_EQ(occurrences(err, line), 1u) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 2) << err;
}

/// Success when every field an SMPSS_* integer sets is equal in `a` and `b`.
::testing::AssertionResult same_int_settings(const Config& a,
                                             const Config& b) {
  if (a.num_threads == b.num_threads && a.task_window == b.task_window &&
      a.rename_memory_limit == b.rename_memory_limit &&
      a.chain_depth == b.chain_depth && a.pool_cache == b.pool_cache &&
      a.max_streams == b.max_streams &&
      a.stats_period_ms == b.stats_period_ms)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << "an integer setting changed";
}

TEST(Env, OutOfRangeIntsRejectedWithOneDiagnostic) {
  // Regression: each value passed a sign check and then wrapped on the cast
  // (5000000000 threads became 705032704, 2^44 MB of rename memory became
  // 0 bytes, 2^32 streams became 0), or failed the sign check silently.
  const Config defaults;
  const std::pair<const char*, const char*> cases[] = {
      {"SMPSS_NUM_THREADS", "0"},
      {"SMPSS_NUM_THREADS", "-3"},
      {"SMPSS_NUM_THREADS", "1025"},
      {"SMPSS_NUM_THREADS", "5000000000"},
      {"SMPSS_TASK_WINDOW", "0"},
      {"SMPSS_TASK_WINDOW", "-5"},
      {"SMPSS_RENAME_MEMORY_MB", "0"},
      {"SMPSS_RENAME_MEMORY_MB", "-1"},
      {"SMPSS_RENAME_MEMORY_MB", "17592186044416"},
      {"SMPSS_CHAIN_DEPTH", "-1"},
      {"SMPSS_CHAIN_DEPTH", "4294967296"},
      {"SMPSS_POOL_CACHE", "-1"},
      {"SMPSS_POOL_CACHE", "4294967296"},
      {"SMPSS_STREAMS", "0"},
      {"SMPSS_STREAMS", "4294967296"},
      {"SMPSS_STATS_PERIOD_MS", "-1"},
      {"SMPSS_STATS_PERIOD_MS", "4294967296"},
  };
  for (const auto& [name, value] : cases) {
    std::string err;
    const Config c = from_env_with({{name, value}}, err);
    EXPECT_TRUE(same_int_settings(c, defaults)) << name << "=" << value;
    EXPECT_EQ(occurrences(err, "smpss: ignoring " + std::string(name) +
                                   "=\"" + value +
                                   "\" (expected an integer in ["),
              1u)
        << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
}

TEST(Env, IntSettingsAcceptTheirWholeRange) {
  // The bounds themselves are legal; only Config::from_env() runs, so no
  // Runtime ever starts the largest thread count.
  const std::size_t mb_max = std::numeric_limits<std::size_t>::max() >> 20;
  const std::string mb_max_str = std::to_string(mb_max);
  std::string err;
  const Config hi =
      from_env_with({{"SMPSS_NUM_THREADS", "1024"},
                     {"SMPSS_TASK_WINDOW", "9223372036854775807"},
                     {"SMPSS_RENAME_MEMORY_MB", mb_max_str.c_str()},
                     {"SMPSS_CHAIN_DEPTH", "4294967295"},
                     {"SMPSS_POOL_CACHE", "4294967295"},
                     {"SMPSS_STREAMS", "4294967295"},
                     {"SMPSS_STATS_PERIOD_MS", "4294967295"}},
                    err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(hi.num_threads, 1024u);
  EXPECT_EQ(hi.task_window, std::size_t(9223372036854775807));
  EXPECT_EQ(hi.rename_memory_limit, mb_max << 20);
  EXPECT_EQ(hi.chain_depth, 4294967295u);
  EXPECT_EQ(hi.pool_cache, 4294967295u);
  EXPECT_EQ(hi.max_streams, 4294967295u);
  EXPECT_EQ(hi.stats_period_ms, 4294967295u);
  const Config lo = from_env_with({{"SMPSS_NUM_THREADS", "1"},
                                   {"SMPSS_TASK_WINDOW", "1"},
                                   {"SMPSS_RENAME_MEMORY_MB", "1"},
                                   {"SMPSS_CHAIN_DEPTH", "0"},
                                   {"SMPSS_POOL_CACHE", "0"},
                                   {"SMPSS_STREAMS", "1"},
                                   {"SMPSS_STATS_PERIOD_MS", "0"}},
                                  err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(lo.num_threads, 1u);
  EXPECT_EQ(lo.task_window, 1u);
  EXPECT_EQ(lo.rename_memory_limit, std::size_t(1) << 20);
  EXPECT_EQ(lo.chain_depth, 0u);
  EXPECT_EQ(lo.pool_cache, 0u);
  EXPECT_EQ(lo.max_streams, 1u);
  EXPECT_EQ(lo.stats_period_ms, 0u);
}

TEST(Env, UnknownAndRetiredNamesDiagnosed) {
  std::string err;
  const Config c = from_env_with({{"SMPSS_DEP_LOCKFREE", "1"},
                                  {"SMPSS_SCHED_POLICY", "paper"},
                                  {"SMPSS_AWARE_CRIT_PPM", "2000000"},
                                  {"SMPSS_AWARE_LOCALITY_PPM", "1"},
                                  {"SMPSS_AWARE_COST_NS", "5"},
                                  {"SMPSS_PROCS", "2"},
                                  {"SMPSS_NUM_THREAD", "2"},
                                  {"SMPSS_NUM_THREADS", "3"}},
                                 err);
  EXPECT_EQ(c.num_threads, 3u);
  EXPECT_EQ(c.procs, 1u);
  for (const char* name :
       {"SMPSS_DEP_LOCKFREE", "SMPSS_SCHED_POLICY", "SMPSS_AWARE_CRIT_PPM",
        "SMPSS_AWARE_LOCALITY_PPM", "SMPSS_AWARE_COST_NS", "SMPSS_PROCS"})
    EXPECT_EQ(occurrences(err, std::string(name) + "=\""), 1u)
        << name << ": " << err;
  EXPECT_EQ(occurrences(err, "(retired setting)\n"), 6u) << err;
  EXPECT_EQ(occurrences(err, "smpss: ignoring SMPSS_NUM_THREAD=\"2\" "
                             "(unknown setting)\n"),
            1u)
      << err;
  EXPECT_EQ(occurrences(err, "SMPSS_NUM_THREADS"), 0u) << err;
}

TEST(Env, TestAndBenchVariablesStayLegal) {
  std::string err;
  from_env_with({{"SMPSS_TEST_SEED", "7"},
                 {"SMPSS_FUZZ_BUDGET_MS", "10"},
                 {"SMPSS_FUZZ_SEED_BASE", "1"},
                 {"SMPSS_BENCH_SCALE", "2"}},
                err);
  EXPECT_TRUE(err.empty()) << err;
}

// --- spin primitives -----------------------------------------------------------------

TEST(SpinLock, MutualExclusion) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

// --- timing ----------------------------------------------------------------------------

TEST(Timing, Monotonic) {
  auto a = now_ns();
  auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(Timing, ScopedTimerAccumulates) {
  double sink = 0.0;
  { ScopedTimer t(sink); }
  EXPECT_GE(sink, 0.0);
}

// --- affinity ---------------------------------------------------------------------------

TEST(Affinity, HardwareConcurrencyPositive) {
  EXPECT_GE(hardware_concurrency(), 1u);
}

// --- thread pool -------------------------------------------------------------------------

TEST(ThreadPool, RunsOnAllThreads) {
  ThreadPool pool(4);
  std::vector<int> hits(4, 0);
  pool.run([&](unsigned tid) { hits[tid] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 4);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.run([&](unsigned) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(8);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round)
    pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 50 * 8);
}

// --- overlap-safe copy (the data-movement primitive) ---------------------------

TEST(MemCopy, RangesOverlapTruthTable) {
  char buf[64];
  EXPECT_TRUE(ranges_overlap(buf, 16, buf, 16));        // identical
  EXPECT_TRUE(ranges_overlap(buf, 16, buf + 8, 16));    // partial, forward
  EXPECT_TRUE(ranges_overlap(buf + 8, 16, buf, 16));    // partial, backward
  EXPECT_TRUE(ranges_overlap(buf, 32, buf + 8, 8));     // containment
  EXPECT_FALSE(ranges_overlap(buf, 16, buf + 16, 16));  // adjacent
  EXPECT_FALSE(ranges_overlap(buf, 8, buf + 32, 8));    // disjoint
  EXPECT_FALSE(ranges_overlap(buf, 0, buf, 16));        // empty range
}

TEST(MemCopy, SafeCopyHandlesOverlapBothDirections) {
  // Regression for the close-node inherit copies (runtime.cpp): a memcpy
  // here corrupted data when a transfer's src and dst ranges aliased.
  // safe_copy must behave like the sequential byte-at-a-time oracle in both
  // shift directions.
  std::vector<unsigned char> init(64);
  for (std::size_t i = 0; i < init.size(); ++i)
    init[i] = static_cast<unsigned char>(i);

  // Forward shift: dst overlaps the tail of src.
  std::vector<unsigned char> fwd = init;
  safe_copy(fwd.data() + 8, fwd.data(), 32);
  for (std::size_t i = 0; i < 32; ++i)
    ASSERT_EQ(fwd[8 + i], init[i]) << "forward-shift byte " << i;

  // Backward shift: dst overlaps the head of src.
  std::vector<unsigned char> bwd = init;
  safe_copy(bwd.data(), bwd.data() + 8, 32);
  for (std::size_t i = 0; i < 32; ++i)
    ASSERT_EQ(bwd[i], init[8 + i]) << "backward-shift byte " << i;

  // Fully disjoint stays a plain copy.
  std::vector<unsigned char> dis = init;
  safe_copy(dis.data() + 32, dis.data(), 16);
  for (std::size_t i = 0; i < 16; ++i) ASSERT_EQ(dis[32 + i], init[i]);
}

TEST(ThreadPool, ParallelSumCorrect) {
  ThreadPool pool(6);
  std::vector<long> partial(6, 0);
  constexpr long kN = 600000;
  pool.run([&](unsigned tid) {
    long s = 0;
    for (long i = static_cast<long>(tid); i < kN; i += 6) s += i;
    partial[tid] = s;
  });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), 0L),
            kN * (kN - 1) / 2);
}

}  // namespace
}  // namespace smpss
