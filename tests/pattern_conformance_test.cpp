// Differential conformance harness for the dependency-pattern engine.
//
// Every pattern family (trivial, chain, stencils, fft, tree, random_nearest,
// all_to_all, spread) is lowered onto the runtime in both address mode and
// region mode and swept through the runtime's configuration axes — nested
// submission on/off (flat and per-step generator-task shapes), renaming
// on/off (also under nested submitters), chain depth 0/1/default, pooling
// on/off, small task windows, both schedulers —
// and the final memory image must be
// bit-identical to the sequential oracle every time. Any missed or phantom
// dependency, lost rename copy, or torn cell in any configuration shows up
// as a checksum mismatch.
//
// The PatternFuzz suite additionally draws random (spec, config) pairs from
// a seed stream under a time budget:
//   SMPSS_TEST_SEED=N        replay exactly seed N (and nothing else)
//   SMPSS_FUZZ_SEED_BASE=N   first seed of the stream (CI uses the run id)
//   SMPSS_FUZZ_BUDGET_MS=N   time box (default 2000 ms)
// Failures print the spec, the config, and a replay command line.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "patterns/driver.hpp"
#include "runtime/runtime.hpp"
#include "seed_util.hpp"

namespace smpss::patterns {
namespace {

Config base_config() {
  Config cfg;
  cfg.num_threads = 4;
  return cfg;
}

struct Variant {
  const char* name;
  void (*tweak)(RunOptions&);
};

// One axis varied at a time off the 4-thread default, plus the combined
// stress rows at the end. The NestedSteps rows move submission itself onto
// the workers (concurrent submit/retire through the lock-free pipeline).
const Variant kSweep[] = {
    {"default", [](RunOptions&) {}},
    {"threads1", [](RunOptions& o) { o.cfg.num_threads = 1; }},
    {"renaming_off", [](RunOptions& o) { o.cfg.renaming = false; }},
    {"chain0", [](RunOptions& o) { o.cfg.chain_depth = 0; }},
    {"chain1", [](RunOptions& o) { o.cfg.chain_depth = 1; }},
    {"pool_off", [](RunOptions& o) { o.cfg.pool_cache = 0; }},
    {"window16", [](RunOptions& o) { o.cfg.task_window = 16; }},
    {"centralized",
     [](RunOptions& o) { o.cfg.scheduler_mode = SchedulerMode::Centralized; }},
    {"extra_field", [](RunOptions& o) { o.nfields = 3; }},
    {"nested_flat", [](RunOptions& o) { o.cfg.nested_tasks = true; }},
    {"nested_steps",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.shape = SubmitShape::NestedSteps;
     }},
    {"nested_steps_join",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.shape = SubmitShape::NestedSteps;
       o.join_steps = true;
     }},
    // The no-renaming ablation under concurrent submitters: the one
    // configuration whose analysis serializes on a runtime mutex (its
    // WAR-edge reader lists are not concurrent structures).
    {"nested_norename",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.cfg.renaming = false;
     }},
    {"nested_steps_norename",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.cfg.renaming = false;
       o.shape = SubmitShape::NestedSteps;
     }},
    {"window4_norename",
     [](RunOptions& o) {
       o.cfg.task_window = 4;
       o.cfg.renaming = false;
     }},
    {"nested_steps_window16",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.shape = SubmitShape::NestedSteps;
       o.cfg.task_window = 16;
     }},
    {"nested_chain0",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.cfg.chain_depth = 0;
     }},
};

::testing::AssertionResult images_equal(const PatternImage& got,
                                        const PatternImage& want) {
  if (got == want) return ::testing::AssertionSuccess();
  for (long f = 0; f < want.nfields; ++f)
    for (long p = 0; p < want.width; ++p)
      if (got.at(f, p) != want.at(f, p)) {
        std::ostringstream os;
        os << "first mismatch at row " << f << " point " << p << ": got 0x"
           << std::hex << got.at(f, p) << " want 0x" << want.at(f, p);
        return ::testing::AssertionFailure() << os.str();
      }
  return ::testing::AssertionFailure() << "image shapes differ";
}

/// Run `spec` through the full sweep in every legal lowering mode, diffing
/// against the sequential oracle (computed once per row count).
void check_spec(const PatternSpec& spec) {
  std::map<int, PatternImage> oracle;  // nfields -> ground truth
  const auto expect_for = [&](int nf) -> const PatternImage& {
    auto it = oracle.find(nf);
    if (it == oracle.end()) it = oracle.emplace(nf, run_oracle(spec, nf)).first;
    return it->second;
  };
  for (LowerMode mode : {LowerMode::Address, LowerMode::Region}) {
    if (mode == LowerMode::Address && !address_mode_ok(spec)) continue;
    for (const Variant& v : kSweep) {
      RunOptions opt;
      opt.cfg = base_config();
      opt.mode = mode;
      v.tweak(opt);
      if (opt.nfields == 0) opt.nfields = default_fields(spec);
      RunResult r = run_pattern(spec, opt);
      // NestedSteps spawns one generator task per step.
      const std::uint64_t expected_tasks =
          spec.total_tasks() +
          (opt.shape == SubmitShape::NestedSteps
               ? static_cast<std::uint64_t>(spec.steps)
               : 0);
      ASSERT_TRUE(images_equal(r.image, expect_for(opt.nfields)))
          << "variant=" << v.name << "\n  " << spec.describe() << "\n  "
          << opt.describe();
      EXPECT_EQ(r.stats.tasks_spawned, expected_tasks)
          << "variant=" << v.name << " " << spec.describe();
      EXPECT_EQ(r.stats.tasks_inlined, 0u)
          << "variant=" << v.name << " " << spec.describe();
    }
  }
}

PatternSpec standard_spec(PatternKind kind) {
  PatternSpec s;
  s.kind = kind;
  s.width = 8;
  s.steps = 10;
  s.radix = 3;
  s.period = 3;
  s.seed = 0xA11CE;
  return s;
}

// --- the per-family sweeps (narrow enough for address mode too) ---------------

TEST(PatternConformance, Trivial) {
  check_spec(standard_spec(PatternKind::Trivial));
}
TEST(PatternConformance, Chain) {
  check_spec(standard_spec(PatternKind::Chain));
}
TEST(PatternConformance, Stencil1D) {
  check_spec(standard_spec(PatternKind::Stencil1D));
}
TEST(PatternConformance, Stencil1DPeriodic) {
  check_spec(standard_spec(PatternKind::Stencil1DPeriodic));
}
TEST(PatternConformance, Fft) { check_spec(standard_spec(PatternKind::Fft)); }
TEST(PatternConformance, Tree) {
  PatternSpec s = standard_spec(PatternKind::Tree);
  s.width = 16;  // 1, 2, 4, 8, 16, 16, ... — the growing-row path
  check_spec(s);
}
TEST(PatternConformance, RandomNearest) {
  check_spec(standard_spec(PatternKind::RandomNearest));
}
TEST(PatternConformance, AllToAll) {
  // width 8 == kMaxAddressFanIn: the widest graph address mode can carry.
  check_spec(standard_spec(PatternKind::AllToAll));
}
TEST(PatternConformance, Spread) {
  check_spec(standard_spec(PatternKind::Spread));
}

// --- commuting accumulator rows -----------------------------------------------
// AccumMode bolts one commuting write per point task onto the pattern: all
// width tasks of a timestep add their produced value into one shared step
// accumulator, lowered as smpss::commutative() (mutual exclusion, no
// ordering) or smpss::reduction(Plus{}) (per-worker privatization). The
// image must stay bit-identical to the oracle AND the accumulators must
// land on oracle_step_sums exactly — wrapping uint64 addition commutes, so
// any member order that respects mutual exclusion is correct and any torn
// update, lost wakeup, double combine, or missed private shows up as a sum
// mismatch. Swept across flat/nested submission (with and without
// renaming), the axes whose acquire paths differ.

struct AccumVariant {
  const char* name;
  void (*tweak)(RunOptions&);
};

const AccumVariant kAccumSweep[] = {
    {"paper", [](RunOptions&) {}},
    {"threads1", [](RunOptions& o) { o.cfg.num_threads = 1; }},
    {"renaming_off", [](RunOptions& o) { o.cfg.renaming = false; }},
    {"chain0", [](RunOptions& o) { o.cfg.chain_depth = 0; }},
    {"window16", [](RunOptions& o) { o.cfg.task_window = 16; }},
    {"nested_flat",
     [](RunOptions& o) { o.cfg.nested_tasks = true; }},
    {"nested_norename",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.cfg.renaming = false;
     }},
    {"nested_steps",
     [](RunOptions& o) {
       o.cfg.nested_tasks = true;
       o.shape = SubmitShape::NestedSteps;
     }},
};

void check_accum_spec(const PatternSpec& spec, AccumMode am) {
  const int nf = default_fields(spec);
  const PatternImage expect = run_oracle(spec, nf);
  const std::vector<Cell> expect_sums = oracle_step_sums(spec, nf);
  for (LowerMode mode : {LowerMode::Address, LowerMode::Region}) {
    if (mode == LowerMode::Address && !address_mode_ok(spec)) continue;
    for (const AccumVariant& v : kAccumSweep) {
      RunOptions opt;
      opt.cfg = base_config();
      opt.mode = mode;
      opt.accum = am;
      v.tweak(opt);
      // Concurrent privatization rides the renaming machinery; the
      // renaming_off row is a commutative-only ablation.
      if (am == AccumMode::Concurrent && !opt.cfg.renaming) continue;
      opt.nfields = nf;
      RunResult r = run_pattern(spec, opt);
      ASSERT_TRUE(images_equal(r.image, expect))
          << "variant=" << v.name << "\n  " << spec.describe() << "\n  "
          << opt.describe();
      ASSERT_EQ(r.accums, expect_sums)
          << "variant=" << v.name << "\n  " << spec.describe() << "\n  "
          << opt.describe();
      // One group per step accumulator, every point task a member, every
      // group sealed and retired by the barrier.
      EXPECT_EQ(r.stats.groups_opened, static_cast<std::uint64_t>(spec.steps))
          << "variant=" << v.name << " " << spec.describe();
      EXPECT_EQ(r.stats.groups_closed, r.stats.groups_opened)
          << "variant=" << v.name << " " << spec.describe();
      EXPECT_EQ(r.stats.group_joins, spec.total_tasks())
          << "variant=" << v.name << " " << spec.describe();
    }
  }
}

TEST(PatternConformance, CommutativeAllToAll) {
  check_accum_spec(standard_spec(PatternKind::AllToAll),
                   AccumMode::Commutative);
}
TEST(PatternConformance, CommutativeSpread) {
  check_accum_spec(standard_spec(PatternKind::Spread),
                   AccumMode::Commutative);
}
TEST(PatternConformance, ConcurrentAllToAll) {
  check_accum_spec(standard_spec(PatternKind::AllToAll),
                   AccumMode::Concurrent);
}
TEST(PatternConformance, ConcurrentSpread) {
  check_accum_spec(standard_spec(PatternKind::Spread), AccumMode::Concurrent);
}

// Wide fan-in: the point tasks lower in region mode while the accumulator
// stays an address-mode commuting parameter — mixed routing on one task.
TEST(PatternConformance, CommutativeWideAllToAllRegionOnly) {
  PatternSpec a2a = standard_spec(PatternKind::AllToAll);
  a2a.width = 24;
  a2a.steps = 6;
  ASSERT_FALSE(address_mode_ok(a2a));
  check_accum_spec(a2a, AccumMode::Commutative);
  check_accum_spec(a2a, AccumMode::Concurrent);
}

// Fan-in wider than any spawn arity: the region-analyzer lowering is the
// only legal one (check_spec skips address mode by itself).
TEST(PatternConformance, WideFanInRegionOnly) {
  PatternSpec a2a = standard_spec(PatternKind::AllToAll);
  a2a.width = 24;
  a2a.steps = 6;
  ASSERT_FALSE(address_mode_ok(a2a));
  check_spec(a2a);

  PatternSpec spread = standard_spec(PatternKind::Spread);
  spread.width = 24;
  spread.steps = 8;
  spread.radix = 6;
  check_spec(spread);

  PatternSpec rn = standard_spec(PatternKind::RandomNearest);
  rn.width = 24;
  rn.radix = 8;
  rn.fraction_ppm = 900000;
  check_spec(rn);
}

// Task grain must not perturb the dataflow: the busywork kernels fold a
// deterministic result into every cell, so a body that skipped (or doubled)
// its kernel diverges from the oracle.
TEST(PatternConformance, KernelGrains) {
  PatternSpec compute = standard_spec(PatternKind::Stencil1D);
  compute.steps = 6;
  compute.kernel = {KernelKind::Compute, 64};
  check_spec(compute);

  PatternSpec memory = standard_spec(PatternKind::Fft);
  memory.steps = 6;
  memory.kernel = {KernelKind::Memory, 2};
  check_spec(memory);
}

// Baselines must agree with the oracle too — the bench's comparison curves
// are only meaningful if every runtime computes the same answer.
TEST(PatternConformance, BaselinesMatchOracle) {
  for (PatternKind kind : all_pattern_kinds()) {
    PatternSpec s = standard_spec(kind);
    const int nf = default_fields(s);
    const PatternImage expect = run_oracle(s, nf);
    ASSERT_TRUE(images_equal(run_taskpool_baseline(s, nf, 4), expect))
        << "taskpool diverged: " << s.describe();
    ASSERT_TRUE(images_equal(run_forkjoin_baseline(s, nf, 4), expect))
        << "forkjoin diverged: " << s.describe();
  }
}

// --- randomized differential fuzzing -------------------------------------------

PatternSpec random_spec(Xoshiro256& rng) {
  PatternSpec s;
  s.kind = all_pattern_kinds()[rng.next_below(kPatternKindCount)];
  s.width = 2 + static_cast<std::int32_t>(rng.next_below(23));   // 2..24
  s.steps = 2 + static_cast<std::int32_t>(rng.next_below(11));   // 2..12
  s.radix = 1 + static_cast<std::int32_t>(rng.next_below(
                    std::min<std::uint64_t>(8, s.width)));
  s.period = 1 + static_cast<std::int32_t>(rng.next_below(4));
  s.fraction_ppm = static_cast<std::uint32_t>(rng.next_below(1000001));
  s.seed = rng.next();
  switch (rng.next_below(3)) {
    case 0: s.kernel = {KernelKind::Empty, 0}; break;
    case 1:
      s.kernel = {KernelKind::Compute,
                  static_cast<std::uint32_t>(rng.next_below(65))};
      break;
    default:
      s.kernel = {KernelKind::Memory,
                  static_cast<std::uint32_t>(rng.next_below(3))};
      break;
  }
  return s;
}

RunOptions random_options(Xoshiro256& rng, const PatternSpec& spec) {
  RunOptions o;
  o.cfg.num_threads = 1 + static_cast<unsigned>(rng.next_below(4));
  o.cfg.renaming = rng.next_below(2) == 0;
  o.cfg.chain_depth = std::array<unsigned, 3>{0, 1, 16}[rng.next_below(3)];
  o.cfg.pool_cache = rng.next_below(2) ? 64u : 0u;
  o.cfg.task_window = std::array<std::size_t, 3>{4, 16, 8192}[rng.next_below(3)];
  // Three retired axes (dependency shard count, locked pipeline, scheduling
  // policy): still drawn and discarded so every seed's remaining axes stay
  // what they were.
  rng.next_below(2);
  rng.next_below(2);
  rng.next_below(2);
  o.cfg.nested_tasks = rng.next_below(2) == 0;
  if (o.cfg.nested_tasks && rng.next_below(2) == 0) {
    o.shape = SubmitShape::NestedSteps;
    o.join_steps = rng.next_below(2) == 0;
  }
  o.mode = (address_mode_ok(spec) && rng.next_below(2) == 0)
               ? LowerMode::Address
               : LowerMode::Region;
  o.nfields =
      min_fields(spec) + static_cast<int>(rng.next_below(2));  // min..min+1
  // A third of the draws bolt on the commuting step accumulator; the
  // concurrent (reduction) flavor needs the renaming machinery.
  if (rng.next_below(3) == 0)
    o.accum = (o.cfg.renaming && rng.next_below(2) == 0)
                  ? AccumMode::Concurrent
                  : AccumMode::Commutative;
  return o;
}

void run_fuzz_seed(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0xF0A77E57ull);
  const PatternSpec spec = random_spec(rng);
  const RunOptions opt = random_options(rng, spec);
  const PatternImage expect = run_oracle(spec, opt.nfields);
  const RunResult got = run_pattern(spec, opt);
  ASSERT_TRUE(images_equal(got.image, expect))
      << "fuzz seed=" << seed << "\n  " << spec.describe() << "\n  "
      << opt.describe() << "\n  "
      << smpss::testing::replay_command("pattern_conformance_test",
                                        "PatternFuzz.*", seed);
  if (opt.accum != AccumMode::None) {
    ASSERT_EQ(got.accums, oracle_step_sums(spec, opt.nfields))
        << "fuzz seed=" << seed << "\n  " << spec.describe() << "\n  "
        << opt.describe() << "\n  "
        << smpss::testing::replay_command("pattern_conformance_test",
                                          "PatternFuzz.*", seed);
  }
}

TEST(PatternFuzz, TimeBoxedRandomSweep) {
  if (auto s = smpss::testing::seed_override()) {
    std::cout << "pattern-fuzz: replaying single seed " << *s << std::endl;
    run_fuzz_seed(*s);
    return;
  }
  const std::uint64_t base = smpss::testing::fuzz_seed_base(20260728);
  const long long budget_ms = smpss::testing::fuzz_budget_ms(2000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  std::uint64_t seed = base;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_NO_FATAL_FAILURE(run_fuzz_seed(seed)) << "failing seed: " << seed;
    ++seed;
  }
  // The CI fuzz leg greps this line into the step summary so the seed range
  // a green run covered is recorded.
  std::cout << "pattern-fuzz: " << (seed - base) << " seeds in [" << base
            << ", " << (seed == base ? base : seed - 1)
            << "], budget_ms=" << budget_ms << std::endl;
}

// --- service-mode fuzz shape ---------------------------------------------------
// Random (stream count, per-stream window/weight, spec, lowering, arrival
// stagger) drawn from one seed: N client threads multiplex independent
// pattern graphs onto one runtime through StreamHandles, racing the
// admission queue and the lock-free analyzer; every image must still match
// its sequential oracle. The shape (everything but the OS interleaving) is
// seed-determined, so SMPSS_TEST_SEED replays it exactly.

void run_service_fuzz_seed(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x5E47F1CEull);
  Config cfg;
  cfg.num_threads = 2 + static_cast<unsigned>(rng.next_below(3));  // 2..4
  cfg.nested_tasks = true;
  cfg.task_window =
      std::array<std::size_t, 3>{24, 128, 8192}[rng.next_below(3)];
  // Retired axes, drawn and discarded to keep the seed stream (see
  // random_options).
  rng.next_below(2);
  rng.next_below(2);
  rng.next_below(2);
  const int nstreams = 2 + static_cast<int>(rng.next_below(3));  // 2..4

  struct Client {
    PatternSpec spec;
    LowerMode mode;
    StreamOptions opts;
    std::uint32_t stagger_us;
  };
  std::vector<Client> plan;
  for (int i = 0; i < nstreams; ++i) {
    Client c;
    c.spec = random_spec(rng);
    c.spec.steps = 2 + static_cast<std::int32_t>(rng.next_below(7));  // 2..8
    c.mode = (address_mode_ok(c.spec) && rng.next_below(2) == 0)
                 ? LowerMode::Address
                 : LowerMode::Region;
    c.opts.name = "fuzz-" + std::to_string(i);
    c.opts.weight = 1 + static_cast<std::uint32_t>(rng.next_below(3));
    c.opts.task_window =
        std::array<std::size_t, 3>{0, 4, 16}[rng.next_below(3)];
    c.stagger_us = static_cast<std::uint32_t>(rng.next_below(300));
    plan.push_back(c);
  }

  std::vector<PatternImage> imgs;
  for (const Client& c : plan)
    imgs.push_back(make_initial_image(c.spec, default_fields(c.spec)));
  {
    Runtime rt(cfg);
    TaskType point = rt.register_task_type("service_fuzz_point");
    std::vector<StreamHandle> streams;
    for (const Client& c : plan) streams.push_back(rt.open_stream(c.opts));
    std::vector<std::thread> clients;
    for (int i = 0; i < nstreams; ++i)
      clients.emplace_back([&, i] {
        std::this_thread::sleep_for(
            std::chrono::microseconds(plan[i].stagger_us));
        submit_pattern_stream(streams[i], point, plan[i].spec, imgs[i],
                              plan[i].mode);
        streams[i].drain();
      });
    for (auto& th : clients) th.join();
    rt.barrier();  // realign renamed data into the images
    for (int i = 0; i < nstreams; ++i) {
      ASSERT_EQ(streams[i].state()->submitted.load(),
                static_cast<std::uint64_t>(plan[i].spec.total_tasks()))
          << "service fuzz seed=" << seed << " stream " << i;
      ASSERT_EQ(streams[i].state()->retired.load(),
                streams[i].state()->submitted.load())
          << "service fuzz seed=" << seed << " stream " << i;
    }
    ASSERT_EQ(rt.live_tasks(), 0u) << "service fuzz seed=" << seed;
  }
  for (int i = 0; i < nstreams; ++i) {
    const PatternImage expect = run_oracle(plan[i].spec, imgs[i].nfields);
    ASSERT_TRUE(images_equal(imgs[i], expect))
        << "service fuzz seed=" << seed << " stream " << i << " mode "
        << to_string(plan[i].mode) << "\n  " << plan[i].spec.describe()
        << "\n  "
        << smpss::testing::replay_command("pattern_conformance_test",
                                          "PatternFuzz.ServiceMode*", seed);
  }
}

TEST(PatternFuzz, ServiceModeRandomStreams) {
  if (auto s = smpss::testing::seed_override()) {
    std::cout << "service-fuzz: replaying single seed " << *s << std::endl;
    run_service_fuzz_seed(*s);
    return;
  }
  // A quarter of the shared fuzz budget: this shape rides in the same CI
  // leg as TimeBoxedRandomSweep without doubling its wall clock.
  const std::uint64_t base = smpss::testing::fuzz_seed_base(20260807);
  const long long budget_ms = smpss::testing::fuzz_budget_ms(2000, 1, 4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  std::uint64_t seed = base;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_NO_FATAL_FAILURE(run_service_fuzz_seed(seed))
        << "failing seed: " << seed;
    ++seed;
  }
  std::cout << "service-fuzz: " << (seed - base) << " seeds in [" << base
            << ", " << (seed == base ? base : seed - 1)
            << "], budget_ms=" << budget_ms << std::endl;
}

}  // namespace
}  // namespace smpss::patterns
