// Strassen tests: numerical agreement with plain GEMM, the sequential
// recursion, renaming intensity (the paper's "intensive renaming test
// case"), correctness with renaming disabled, the nested-spawn build, and
// the flop formula.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/matmul.hpp"
#include "apps/strassen.hpp"
#include "hyper/flat_matrix.hpp"

namespace smpss {
namespace {

// threads, nb, m, renaming, nested
using Param = std::tuple<unsigned, int, int, bool, bool>;

class StrassenSuite : public ::testing::TestWithParam<Param> {};

TEST_P(StrassenSuite, MatchesGemmOracle) {
  auto [threads, nb, m, renaming, nested] = GetParam();
  const int n = nb * m;
  FlatMatrix a(n), b(n), c_oracle(n);
  fill_random(a, 31);
  fill_random(b, 32);
  apps::matmul_seq_flat(n, a.data(), b.data(), c_oracle.data(),
                        blas::ref_kernels());

  Config cfg;
  cfg.num_threads = threads;
  cfg.renaming = renaming;
  cfg.nested_tasks = nested;
  Runtime rt(cfg);
  auto tt = apps::StrassenTasks::register_in(rt);
  HyperMatrix ha(nb, m, true), hb(nb, m, true), hc(nb, m, true);
  blocked_from_flat(ha, a.data());
  blocked_from_flat(hb, b.data());
  apps::strassen_smpss(rt, tt, ha, hb, hc, blas::tuned_kernels());
  FlatMatrix c(n);
  flat_from_blocked(c.data(), hc);
  // Strassen loses some accuracy by construction; tolerance reflects that.
  EXPECT_LE(max_abs_diff(c, c_oracle), 5e-2f * static_cast<float>(n));
  if (nested && nb > 1) {
    EXPECT_GT(rt.stats().tasks_nested, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrassenSuite,
    ::testing::Values(Param{1, 2, 16, true, false}, Param{4, 2, 16, true, false},
                      Param{8, 4, 8, true, false}, Param{8, 4, 16, true, false},
                      Param{4, 4, 8, false, false},  // renaming off: correct
                      Param{8, 8, 8, true, false},
                      // nested-spawn build: recursion runs as worker tasks
                      Param{1, 4, 8, true, true}, Param{4, 4, 8, true, true},
                      Param{8, 4, 16, true, true},
                      Param{8, 8, 8, true, true},
                      // nested + renaming off: hazards become edges, and the
                      // ancestor exemptions keep the C-block accumulation
                      // chains deadlock-free
                      Param{4, 4, 8, false, true}));

TEST(StrassenSeq, MatchesOracle) {
  const int nb = 4, m = 8, n = nb * m;
  FlatMatrix a(n), b(n), c_oracle(n);
  fill_random(a, 41);
  fill_random(b, 42);
  apps::matmul_seq_flat(n, a.data(), b.data(), c_oracle.data(),
                        blas::ref_kernels());
  HyperMatrix ha(nb, m, true), hb(nb, m, true), hc(nb, m, true);
  blocked_from_flat(ha, a.data());
  blocked_from_flat(hb, b.data());
  apps::strassen_seq(ha, hb, hc, blas::ref_kernels());
  FlatMatrix c(n);
  flat_from_blocked(c.data(), hc);
  EXPECT_LE(max_abs_diff(c, c_oracle), 5e-2f * static_cast<float>(n));
}

TEST(StrassenRenaming, TemporaryReuseTriggersRenames) {
  const int nb = 4, m = 8;
  Config cfg;
  // One thread: nothing executes before the barrier, so the reuse of tS/tT
  // always races with pending readers and the rename count is stable.
  cfg.num_threads = 1;
  Runtime rt(cfg);
  auto tt = apps::StrassenTasks::register_in(rt);
  HyperMatrix ha(nb, m, true), hb(nb, m, true), hc(nb, m, true);
  FlatMatrix a(nb * m), b(nb * m);
  fill_random(a, 1);
  fill_random(b, 2);
  blocked_from_flat(ha, a.data());
  blocked_from_flat(hb, b.data());
  apps::strassen_smpss(rt, tt, ha, hb, hc, blas::tuned_kernels());
  // The reused tS/tT temporaries must have forced renamed versions — this
  // is the paper's "intensive renaming test case".
  EXPECT_GT(rt.stats().renames, 10u);
  // Renamed storage is all reclaimed by the barrier.
  EXPECT_EQ(rt.rename_pool().current_bytes(), 0u);
}

TEST(StrassenRenaming, NoRenamingMeansHazardEdges) {
  const int nb = 2, m = 8;
  Config cfg;
  cfg.num_threads = 1;  // deterministic hazard-edge counts
  cfg.renaming = false;
  Runtime rt(cfg);
  auto tt = apps::StrassenTasks::register_in(rt);
  HyperMatrix ha(nb, m, true), hb(nb, m, true), hc(nb, m, true);
  FlatMatrix a(nb * m), b(nb * m);
  fill_random(a, 3);
  fill_random(b, 4);
  blocked_from_flat(ha, a.data());
  blocked_from_flat(hb, b.data());
  apps::strassen_smpss(rt, tt, ha, hb, hc, blas::tuned_kernels());
  auto s = rt.stats();
  EXPECT_EQ(s.renames, 0u);
  EXPECT_GT(s.war_edges + s.waw_edges, 0u);  // serialization made explicit
}

TEST(StrassenFlops, FormulaBaseAndRecursion) {
  EXPECT_DOUBLE_EQ(apps::strassen_flops(1, 10), 2000.0);
  // One level: 7 products of half size + 18 additions of (nb/2*m)^2.
  double expect = 7.0 * apps::strassen_flops(1, 8) + 18.0 * 8.0 * 8.0;
  EXPECT_DOUBLE_EQ(apps::strassen_flops(2, 8), expect);
  // Strassen beats the classic count for large sizes.
  EXPECT_LT(apps::strassen_flops(64, 64), apps::matmul_flops(64 * 64));
}

}  // namespace
}  // namespace smpss
