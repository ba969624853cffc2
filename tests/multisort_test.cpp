// Multisort tests: the sequential primitives (quicksort, two-run merge,
// co-rank), and all four parallel builds (regions, representants, fork-join,
// task pool) against std::sort, over sizes/thread counts/data shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "apps/multisort.hpp"
#include "common/rng.hpp"

namespace smpss {
namespace {

using apps::ELM;

std::vector<ELM> random_data(long n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<ELM> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<ELM>(rng.next() % 1000000);
  return v;
}

TEST(SeqQuick, SortsVariousShapes) {
  for (long n : {0L, 1L, 2L, 7L, 100L, 4097L}) {
    auto v = random_data(n, 5 + static_cast<std::uint64_t>(n));
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    if (n > 0) apps::seqquick(v.data(), 0, n - 1);
    EXPECT_EQ(v, expect) << "n=" << n;
  }
}

TEST(SeqQuick, AlreadySortedAndReverse) {
  std::vector<ELM> up(1000), down(1000);
  for (long i = 0; i < 1000; ++i) {
    up[static_cast<std::size_t>(i)] = i;
    down[static_cast<std::size_t>(i)] = 999 - i;
  }
  apps::seqquick(up.data(), 0, 999);
  apps::seqquick(down.data(), 0, 999);
  EXPECT_TRUE(std::is_sorted(up.begin(), up.end()));
  EXPECT_TRUE(std::is_sorted(down.begin(), down.end()));
}

TEST(SeqQuick, AllEqualElements) {
  std::vector<ELM> v(500, 42);
  apps::seqquick(v.data(), 0, 499);
  for (ELM x : v) EXPECT_EQ(x, 42);
}

TEST(SeqMerge, MergesAdjacentRuns) {
  std::vector<ELM> data = {1, 3, 5, 7, 2, 4, 6, 8};
  std::vector<ELM> dest(8, 0);
  apps::seqmerge(data.data(), 0, 3, 4, 7, dest.data());
  EXPECT_EQ(dest, (std::vector<ELM>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(SeqMerge, EmptyRunHandled) {
  std::vector<ELM> data = {1, 2, 3};
  std::vector<ELM> dest(3, 0);
  apps::seqmerge(data.data(), 0, 2, 3, 2, dest.data());  // second run empty
  EXPECT_EQ(dest, (std::vector<ELM>{1, 2, 3}));
}

// Property: co_rank(t) splits so that merging prefix pieces reproduces the
// full merge, for random sorted inputs and all t.
TEST(CoRank, MatchesBruteForceOnRandomRuns) {
  Xoshiro256 rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    long la = static_cast<long>(rng.next_below(20));
    long lb = static_cast<long>(rng.next_below(20));
    std::vector<ELM> a(static_cast<std::size_t>(la)),
        b(static_cast<std::size_t>(lb));
    for (auto& x : a) x = static_cast<ELM>(rng.next_below(50));
    for (auto& x : b) x = static_cast<ELM>(rng.next_below(50));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<ELM> merged;
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(merged));
    for (long t = 0; t <= la + lb; ++t) {
      long ia = apps::co_rank(t, a.data(), la, b.data(), lb);
      long ib = t - ia;
      ASSERT_GE(ia, 0);
      ASSERT_LE(ia, la);
      ASSERT_GE(ib, 0);
      ASSERT_LE(ib, lb);
      // The first t merged elements must be exactly a[0..ia) ∪ b[0..ib)
      // as multisets: check boundary conditions instead of re-merging.
      if (ia > 0 && ib < lb) {
        ASSERT_LE(a[ia - 1], b[ib]);
      }
      if (ib > 0 && ia < la) {
        ASSERT_LE(b[ib - 1], a[ia]);
      }
      (void)merged;
    }
  }
}

using SortParam = std::tuple<unsigned, long, long, long, std::uint64_t>;
// threads, n, quick_size, merge_size, seed

class MultisortSuite : public ::testing::TestWithParam<SortParam> {
 protected:
  void expect_sorted_equal(const std::vector<ELM>& got,
                           std::vector<ELM> original) {
    std::sort(original.begin(), original.end());
    EXPECT_EQ(got, original);
  }
};

TEST_P(MultisortSuite, SeqVariant) {
  auto [threads, n, qs, ms, seed] = GetParam();
  (void)threads;
  (void)ms;
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  apps::multisort_seq(data.data(), tmp.data(), n, qs);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, SmpssRegions) {
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = threads;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_regions(rt, tt, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, SmpssRegionsNested) {
  // Same decomposition, sort tree expanded by `sort_rec` worker tasks.
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = threads;
  cfg.nested_tasks = true;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_regions(rt, tt, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
  if (n / 4 >= qs) {
    EXPECT_GT(rt.stats().taskwaits, 0u);
  }
}

TEST_P(MultisortSuite, SmpssRepresentants) {
  auto [threads, n, qs, ms, seed] = GetParam();
  (void)ms;
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = threads;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_repr(rt, tt, data.data(), tmp.data(), n, qs);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, ForkJoin) {
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  fj::Scheduler s(threads);
  apps::multisort_fj(s, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
}

TEST_P(MultisortSuite, TaskPool) {
  auto [threads, n, qs, ms, seed] = GetParam();
  auto data = random_data(n, seed);
  auto original = data;
  std::vector<ELM> tmp(data.size());
  omp3::TaskPool p(threads);
  apps::multisort_omp3(p, data.data(), tmp.data(), n, qs, ms);
  expect_sorted_equal(data, original);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultisortSuite,
    ::testing::Values(SortParam{1, 1000, 64, 32, 1},
                      SortParam{4, 10000, 256, 128, 2},
                      SortParam{8, 50000, 1024, 512, 3},
                      SortParam{8, 65536, 4096, 2048, 4},
                      SortParam{2, 777, 50, 25, 5},     // non-power-of-two
                      SortParam{4, 4096, 8192, 512, 6}  // quick covers all
                      ));

TEST(MultisortEdge, DuplicateHeavyInput) {
  long n = 20000;
  std::vector<ELM> data(static_cast<std::size_t>(n));
  Xoshiro256 rng(8);
  for (auto& x : data) x = static_cast<ELM>(rng.next_below(4));  // few values
  auto original = data;
  std::vector<ELM> tmp(data.size());
  Config cfg;
  cfg.num_threads = 8;
  Runtime rt(cfg);
  auto tt = apps::MultisortTasks::register_in(rt);
  apps::multisort_smpss_regions(rt, tt, data.data(), tmp.data(), n, 512, 256);
  std::sort(original.begin(), original.end());
  EXPECT_EQ(data, original);
}

}  // namespace
}  // namespace smpss
