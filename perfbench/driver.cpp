// perfbench_driver — runs one workload of the repository benchmark against
// the library's public API and prints its raw measurements as one JSON line.
// perfbench/run.py builds this program, runs it, and derives the reported
// metrics from that line (and, for a traced run, from the span file).
//
//   perfbench_driver --workload cholesky|stencil_fine|nested_submit
//                    --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Untraced (--trace 0): time repeated Runtime set-ups, then run checked
// iterations on one persistent Runtime for S seconds (and at least
// kMinIters, so the 90th percentile has ten samples beyond it).
// Traced (--trace 1): a traced phase of up to S/2 seconds, an untraced
// reference phase for the rest of S, the reference baselines, and the span
// file: the benchmark's own spans around its calls into each layer plus the
// Runtime's Tracer events. Nothing inside the library is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/cholesky.hpp"
#include "blas/kernels.hpp"
#include "blas/threaded_blas.hpp"
#include "common/timing.hpp"
#include "hyper/flat_matrix.hpp"
#include "patterns/driver.hpp"
#include "patterns/oracle.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace smpss;

constexpr std::size_t kMinIters = 100;      // p90 with >= 10 samples beyond
constexpr int kSetupReps = 101;             // Runtime set-ups per run
constexpr double kHardCapSeconds = 120.0;   // the run must end well in time
constexpr std::size_t kTracedEventCap = 250000;  // bounds the span file

// --- spans recorded by the benchmark's own code -------------------------------

enum SpanName : std::uint32_t {
  kIteration,
  kRun,
  kSubmit,
  kDrain,
  kTaskwait,
  kGemm,
  kSyrk,
  kTrsm,
  kPotrf,
};
constexpr const char* kSpanNames[] = {
    "iteration",        "runtime.run", "runtime.submit",
    "runtime.drain",    "runtime.taskwait", "blas.gemm",
    "blas.syrk",        "blas.trsm",   "blas.potrf"};

struct Span {
  std::uint32_t name;
  std::uint64_t start, end;
};

/// Per-thread span buffers, owned here so they outlive the Runtime's worker
/// threads. Buffer 0 belongs to the thread that first records (main).
class SpanLog {
 public:
  void record(std::uint32_t name, std::uint64_t s, std::uint64_t e) {
    if (on_.load(std::memory_order_relaxed)) buffer().push_back({name, s, e});
  }
  void set_recording(bool on) { on_.store(on, std::memory_order_relaxed); }
  void register_this_thread() { buffer(); }

  /// Call only once every recording thread has been joined.
  void write(std::ostream& os) const {
    for (std::size_t t = 0; t < bufs_.size(); ++t)
      for (const Span& s : *bufs_[t])
        os << "S\t" << kSpanNames[s.name] << '\t' << t << '\t' << s.start
           << '\t' << s.end << '\n';
  }

 private:
  std::vector<Span>& buffer() {
    thread_local std::vector<Span>* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      bufs_.push_back(std::make_unique<std::vector<Span>>());
      mine = bufs_.back().get();
    }
    return *mine;
  }

  std::atomic<bool> on_{false};
  std::mutex mu_;  // guards bufs_ growth
  std::vector<std::unique_ptr<std::vector<Span>>> bufs_;
};

SpanLog g_spans;

// --- the timed blas::Kernels table (traced Cholesky) --------------------------

const blas::Kernels& tuned() { return blas::tuned_kernels(); }

void timed_gemm(int m, const float* a, const float* b, float* c) {
  const std::uint64_t t0 = now_ns();
  tuned().gemm_nt_minus(m, a, b, c);
  g_spans.record(kGemm, t0, now_ns());
}
void timed_syrk(int m, const float* a, float* c) {
  const std::uint64_t t0 = now_ns();
  tuned().syrk_ln_minus(m, a, c);
  g_spans.record(kSyrk, t0, now_ns());
}
void timed_trsm(int m, const float* l, float* x) {
  const std::uint64_t t0 = now_ns();
  tuned().trsm_rltn(m, l, x);
  g_spans.record(kTrsm, t0, now_ns());
}
int timed_potrf(int m, float* a) {
  const std::uint64_t t0 = now_ns();
  const int rc = tuned().potrf_ln(m, a);
  g_spans.record(kPotrf, t0, now_ns());
  return rc;
}

const blas::Kernels& timed_kernels() {
  static const blas::Kernels k{"tuned+timed", timed_gemm,
                               tuned().gemm_nn_acc, timed_syrk,
                               timed_trsm,  timed_potrf,
                               tuned().add, tuned().sub};
  return k;
}

// --- JSON output ---------------------------------------------------------------

/// Minimal writer: callers emit keys in order; commas are inserted here.
class Json {
 public:
  Json& begin_obj(const char* key = nullptr) { return open(key, '{'); }
  Json& begin_arr(const char* key = nullptr) { return open(key, '['); }
  Json& end_obj() { return close('}'); }
  Json& end_arr() { return close(']'); }
  Json& num(const char* key, double v) {
    sep(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
    os_ << buf;
    return *this;
  }
  Json& uint(const char* key, std::uint64_t v) {
    sep(key);
    os_ << v;
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    sep(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep(key);
    os_ << '"';
    for (char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      if (static_cast<unsigned char>(c) >= 0x20) os_ << c;
    }
    os_ << '"';
    return *this;
  }
  std::string text() const { return os_.str(); }

 private:
  Json& open(const char* key, char c) {
    sep(key);
    os_ << c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    os_ << c;
    first_ = false;
    return *this;
  }
  void sep(const char* key) {
    if (!first_) os_ << ',';
    first_ = false;
    if (key != nullptr) os_ << '"' << key << "\":";
  }
  std::ostringstream os_;
  bool first_ = true;
};

// --- workloads -------------------------------------------------------------------

/// Raw timings of one iteration, in seconds. `submit` is the submission
/// critical path (the main thread's spawn phase, or the longest generator
/// spawn loop); `submit_total` sums every submitting thread's spawn time.
struct IterTimes {
  double wall = 0, submit = 0, submit_total = 0, drain = 0, taskwait = 0;
  bool ok = false;
};

/// Library defaults (never Config::from_env(), so no SMPSS_* variable in
/// the environment reaches a workload) with the benchmark's fixed choices.
Config base_config(unsigned threads) {
  Config c;
  c.num_threads = threads;
  c.procs = 1;
  c.record_graph = false;
  c.tracing = false;
  c.pin_threads = false;
  c.stats_period_ms = 0;
  return c;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Config config(unsigned threads) const { return base_config(threads); }
  /// Task types registered before the first iteration (part of set-up).
  virtual void register_types(Runtime&) {}
  virtual std::uint64_t tasks_per_iter() const = 0;
  /// Run one checked iteration; `traced` records the benchmark's spans.
  virtual IterTimes iterate(Runtime& rt, bool traced) = 0;
  /// Reference rows of the traced run; counts their checked operations.
  virtual void baselines(Json&, unsigned /*threads*/, int& /*attempted*/,
                         int& /*failed*/) {}
  virtual double flops_per_iter() const { return 0; }
  virtual std::uint64_t copy_bytes_per_iter() const { return 0; }
  /// Block dimension of the blas kernel calls (0: the workload has none).
  virtual int blas_block() const { return 0; }
};

// cholesky: coarse grain, bound by the blas kernels.
class CholeskyWorkload final : public Workload {
 public:
  static constexpr int kN = 2048;
  static constexpr int kBs = 128;
  // The blocked factorization differs from the unblocked oracle by ~3e-5
  // on these inputs; a misplaced or skipped block moves entries by O(1).
  static constexpr float kTol = 1e-3f;

  explicit CholeskyWorkload(std::uint64_t seed)
      : input_(make_input(seed)), oracle_(input_), work_(kN) {
    const std::uint64_t t0 = now_ns();
    const int rc =
        apps::cholesky_seq_flat(kN, oracle_.data(), blas::ref_kernels());
    seq_s_ = seconds_between(t0, now_ns());
    SMPSS_CHECK(rc == 0, "sequential Cholesky oracle failed");
  }

  void register_types(Runtime& rt) override {
    tt_ = apps::CholeskyTasks::register_in(rt);
  }
  std::uint64_t tasks_per_iter() const override {
    return apps::cholesky_flat_task_count(kN / kBs);
  }
  double flops_per_iter() const override { return apps::cholesky_flops(kN); }
  int blas_block() const override { return kBs; }
  std::uint64_t copy_bytes_per_iter() const override {
    // One get and one put per lower-triangle block, each a bs x bs copy.
    const std::uint64_t nb = kN / kBs;
    return nb * (nb + 1) * std::uint64_t{kBs} * kBs * sizeof(float);
  }

  IterTimes iterate(Runtime& rt, bool traced) override {
    std::memcpy(work_.data(), input_.data(), input_.bytes());
    IterTimes it;
    const std::uint64_t t0 = now_ns();
    const int rc = apps::cholesky_smpss_flat(
        rt, tt_, kN, work_.data(), kBs, traced ? timed_kernels() : tuned());
    const std::uint64_t t1 = now_ns();
    if (traced) {
      g_spans.record(kIteration, t0, t1);
      g_spans.record(kRun, t0, t1);
    }
    it.wall = seconds_between(t0, t1);
    it.ok = rc == 0 && checked(work_);
    return it;
  }

  void baselines(Json& j, unsigned threads, int& attempted,
                 int& failed) override {
    auto rate = [&](auto&& factorize) {
      std::vector<double> s;
      for (int r = 0; r < 3; ++r) {
        std::memcpy(work_.data(), input_.data(), input_.bytes());
        const std::uint64_t t0 = now_ns();
        const int rc = factorize(work_.data());
        s.push_back(seconds_between(t0, now_ns()));
        ++attempted;
        if (rc != 0 || !checked(work_)) ++failed;
      }
      std::sort(s.begin(), s.end());
      return apps::cholesky_flops(kN) / s[1] * 1e-9;
    };
    blas::ThreadedBlas tb(threads, blas::Variant::Tuned);
    blas::ThreadedBlas tb1(1, blas::Variant::Tuned);
    Runtime rt1(base_config(1));
    const apps::CholeskyTasks tt1 = apps::CholeskyTasks::register_in(rt1);
    j.num("threaded_blas_gflops",
          rate([&](float* a) { return tb.potrf_ln_flat(kN, a, kBs); }));
    j.num("threaded_blas_1t_gflops",
          rate([&](float* a) { return tb1.potrf_ln_flat(kN, a, kBs); }));
    j.num("smpss_1t_gflops", rate([&](float* a) {
            return apps::cholesky_smpss_flat(rt1, tt1, kN, a, kBs, tuned());
          }));
    j.num("seq_gflops", apps::cholesky_flops(kN) / seq_s_ * 1e-9);
    j.num("standalone_gflops", standalone_gemm_gflops());
  }

 private:
  static FlatMatrix make_input(std::uint64_t seed) {
    FlatMatrix a(kN);
    fill_spd(a, seed);
    return a;
  }
  bool checked(const FlatMatrix& a) const {
    return max_abs_diff_lower(a, oracle_) <= kTol;
  }
  /// One thread, one bs x bs gemm_nt_minus block, repeated for ~0.2 s.
  double standalone_gemm_gflops() const {
    const std::size_t be = std::size_t{kBs} * kBs;
    std::vector<float> a(be), b(be), c(be);
    for (std::size_t i = 0; i < be; ++i) {
      a[i] = input_.data()[i] * 1e-3f;
      b[i] = input_.data()[be + i] * 1e-3f;
      c[i] = 0.0f;
    }
    std::uint64_t calls = 0;
    const std::uint64_t t0 = now_ns();
    std::uint64_t t1 = t0;
    while (t1 - t0 < 200'000'000ull) {
      for (int r = 0; r < 16; ++r)
        tuned().gemm_nt_minus(kBs, a.data(), b.data(), c.data());
      calls += 16;
      t1 = now_ns();
    }
    SMPSS_CHECK(std::isfinite(c[0]), "standalone gemm produced a non-finite");
    return 2.0 * kBs * kBs * kBs * static_cast<double>(calls) /
           static_cast<double>(t1 - t0);
  }

  FlatMatrix input_, oracle_, work_;
  apps::CholeskyTasks tt_{};
  double seq_s_ = 0;
};

// stencil_fine: one flat submitter at a ~5 us grain.
class StencilWorkload final : public Workload {
 public:
  explicit StencilWorkload(std::uint64_t seed) {
    spec_.kind = patterns::PatternKind::Stencil1D;
    spec_.width = 64;
    spec_.steps = 512;
    spec_.seed = seed;
    spec_.kernel = {patterns::KernelKind::Compute, 1000};
    nfields_ = patterns::default_fields(spec_);
    oracle_ = patterns::run_oracle(spec_, nfields_);
    oracle_sum_ = patterns::image_checksum(oracle_);
    initial_ = patterns::make_initial_image(spec_, nfields_);
  }

  std::uint64_t tasks_per_iter() const override { return spec_.total_tasks(); }

  IterTimes iterate(Runtime& rt, bool traced) override {
    img_ = initial_;
    IterTimes it;
    const std::uint64_t t0 = now_ns();
    patterns::submit_pattern(rt, spec_, img_, patterns::LowerMode::Address,
                             patterns::SubmitShape::Flat);
    const std::uint64_t t1 = now_ns();
    rt.barrier();
    const std::uint64_t t2 = now_ns();
    if (traced) {
      g_spans.record(kIteration, t0, t2);
      g_spans.record(kSubmit, t0, t1);
      g_spans.record(kDrain, t1, t2);
    }
    it.wall = seconds_between(t0, t2);
    it.submit = it.submit_total = seconds_between(t0, t1);
    it.drain = seconds_between(t1, t2);
    it.ok = patterns::image_checksum(img_) == oracle_sum_ && img_ == oracle_;
    return it;
  }

  void baselines(Json& j, unsigned threads, int& attempted,
                 int& failed) override {
    std::vector<double> s;
    for (int r = 0; r < 5; ++r) {
      const std::uint64_t t0 = now_ns();
      const patterns::PatternImage img =
          patterns::run_forkjoin_baseline(spec_, nfields_, threads);
      s.push_back(seconds_between(t0, now_ns()));
      ++attempted;
      if (!(img == oracle_)) ++failed;
    }
    std::sort(s.begin(), s.end());
    j.num("forkjoin_tasks_per_s",
          static_cast<double>(spec_.total_tasks()) / s[2]);
  }

 private:
  patterns::PatternSpec spec_;
  int nfields_ = 0;
  patterns::PatternImage oracle_, initial_, img_;
  std::uint64_t oracle_sum_ = 0;
};

// nested_submit: concurrent submitters sharing one read-only datum.
class NestedWorkload final : public Workload {
 public:
  static constexpr int kChildren = 20000;
  static constexpr int kLanes = 64;

  struct alignas(64) Lane {
    std::uint64_t v;
  };
  struct ChildBody {
    std::uint64_t salt;
    void operator()(const std::uint64_t* shared, Lane* lane) const {
      lane->v += patterns::mix64(*shared, salt);
    }
  };

  NestedWorkload(std::uint64_t seed, unsigned threads)
      : gens_(std::max(1u, threads - 1)),
        shared_(patterns::mix64(seed, 0x5EED)),
        lanes_(std::size_t{gens_} * kLanes),
        initial_(lanes_.size()),
        expected_(lanes_.size()),
        gen_times_(gens_) {
    for (std::size_t l = 0; l < lanes_.size(); ++l)
      initial_[l] = expected_[l] = patterns::mix64(seed, 1000 + l);
    for (unsigned g = 0; g < gens_; ++g)
      for (int i = 0; i < kChildren; ++i)
        expected_[lane_of(g, i)] += patterns::mix64(shared_, salt(g, i));
  }

  Config config(unsigned threads) const override {
    Config c = base_config(threads);
    c.nested_tasks = true;
    return c;
  }
  void register_types(Runtime& rt) override {
    gen_type_ = rt.register_task_type("generator");
    child_type_ = rt.register_task_type("child");
  }
  std::uint64_t tasks_per_iter() const override {
    return std::uint64_t{gens_} * (kChildren + 1);
  }

  IterTimes iterate(Runtime& rt, bool traced) override {
    for (std::size_t l = 0; l < lanes_.size(); ++l) lanes_[l].v = initial_[l];
    Runtime* rtp = &rt;
    IterTimes it;
    const std::uint64_t t0 = now_ns();
    for (unsigned g = 0; g < gens_; ++g)
      rt.spawn(gen_type_, [this, rtp, g, traced] { generate(*rtp, g, traced); });
    const std::uint64_t t1 = now_ns();
    rt.barrier();
    const std::uint64_t t2 = now_ns();
    if (traced) {
      g_spans.record(kIteration, t0, t2);
      g_spans.record(kSubmit, t0, t1);
      g_spans.record(kDrain, t1, t2);
    }
    it.wall = seconds_between(t0, t2);
    it.drain = seconds_between(t1, t2);
    it.submit_total = seconds_between(t0, t1);
    for (const GenTimes& g : gen_times_) {
      const double loop = seconds_between(g.start, g.spawned);
      it.submit = std::max(it.submit, loop);
      it.submit_total += loop;
      it.taskwait += seconds_between(g.spawned, g.joined);
    }
    it.ok = true;
    for (std::size_t l = 0; l < lanes_.size(); ++l)
      it.ok = it.ok && lanes_[l].v == expected_[l];
    return it;
  }

 private:
  struct GenTimes {
    std::uint64_t start = 0, spawned = 0, joined = 0;
  };

  std::size_t lane_of(unsigned g, int i) const {
    return std::size_t{g} * kLanes + static_cast<std::size_t>(i % kLanes);
  }
  static std::uint64_t salt(unsigned g, int i) {
    return (std::uint64_t{g} << 32) | static_cast<std::uint32_t>(i);
  }

  void generate(Runtime& rt, unsigned g, bool traced) {
    GenTimes& gt = gen_times_[g];
    gt.start = now_ns();
    for (int i = 0; i < kChildren; ++i)
      rt.spawn(child_type_, ChildBody{salt(g, i)}, in(&shared_),
               inout(&lanes_[lane_of(g, i)]));
    gt.spawned = now_ns();
    rt.taskwait();
    gt.joined = now_ns();
    if (traced) {
      g_spans.record(kSubmit, gt.start, gt.spawned);
      g_spans.record(kTaskwait, gt.spawned, gt.joined);
    }
  }

  unsigned gens_;
  std::uint64_t shared_;
  std::vector<Lane> lanes_;
  std::vector<std::uint64_t> initial_, expected_;
  std::vector<GenTimes> gen_times_;  // slot g written only by generator g
  TaskType gen_type_{}, child_type_{};
};

// --- measurement phases ------------------------------------------------------------

struct Phase {
  double window_s = 0;  // between the two stats snapshots
  std::vector<IterTimes> iters;
  StatsSnapshot before, after;
};

/// What a traced phase collects besides its Phase.
struct Trace {
  std::vector<TraceEvent> events;
  std::vector<std::string> type_names;  // indexed by TraceEvent::type_id
};

void write_stats(Json& j, const Phase& p) {
  const StatsSnapshot& a = p.before;
  const StatsSnapshot& b = p.after;
  j.begin_obj("stats");
#define PERFBENCH_DELTA(f) j.uint(#f, b.f - a.f)
  PERFBENCH_DELTA(tasks_spawned);
  PERFBENCH_DELTA(tasks_executed);
  PERFBENCH_DELTA(raw_edges);
  PERFBENCH_DELTA(war_edges);
  PERFBENCH_DELTA(waw_edges);
  PERFBENCH_DELTA(renames);
  PERFBENCH_DELTA(in_place_reuses);
  PERFBENCH_DELTA(lockfree_cas_retries);
  PERFBENCH_DELTA(steals);
  PERFBENCH_DELTA(steal_attempts);
  PERFBENCH_DELTA(idle_sleeps);
  PERFBENCH_DELTA(idle_ns);
  PERFBENCH_DELTA(locality_hits);
  PERFBENCH_DELTA(locality_misses);
  PERFBENCH_DELTA(chained_executions);
  PERFBENCH_DELTA(pool_hits);
  PERFBENCH_DELTA(pool_refills);
  PERFBENCH_DELTA(pool_slabs);
  PERFBENCH_DELTA(nested_throttled);
  PERFBENCH_DELTA(foreign_throttled);
  PERFBENCH_DELTA(main_blocked_on_window);
  PERFBENCH_DELTA(main_blocked_on_memory);
#undef PERFBENCH_DELTA
  j.uint("rename_bytes_peak", b.rename_bytes_peak);
  j.end_obj();
  j.begin_arr("worker_executed");
  for (std::size_t w = 0; w < b.workers.size(); ++w)
    j.uint(nullptr, b.workers[w].executed -
                        (w < a.workers.size() ? a.workers[w].executed : 0));
  j.end_arr();
}

void write_phase(Json& j, const char* key, const Phase& p) {
  j.begin_obj(key);
  j.num("window_s", p.window_s);
  j.begin_arr("iters");
  for (const IterTimes& it : p.iters) {
    j.begin_arr();
    j.num(nullptr, it.wall).num(nullptr, it.submit).num(nullptr, it.submit_total);
    j.num(nullptr, it.drain).num(nullptr, it.taskwait).boolean(nullptr, it.ok);
    j.end_arr();
  }
  j.end_arr();
  write_stats(j, p);
  j.end_obj();
}

void write_config(Json& j, const Config& c) {
  j.begin_obj("config");
  j.uint("num_threads", c.num_threads);
  j.uint("task_window", c.task_window);
  j.uint("task_window_low", c.task_window_low);
  j.uint("rename_memory_limit", c.rename_memory_limit);
  j.boolean("renaming", c.renaming);
  j.boolean("nested_tasks", c.nested_tasks);
  j.uint("dep_shards", c.dep_shards);
  j.boolean("dep_lockfree", c.dep_lockfree);
  j.uint("chain_depth", c.chain_depth);
  j.uint("pool_cache", c.pool_cache);
  j.str("scheduler", to_string(c.scheduler_mode));
  j.str("sched_policy", to_string(c.sched_policy));
  j.uint("spin_acquires", c.spin_acquires);
  j.boolean("pin_threads", c.pin_threads);
  j.uint("procs", c.procs);
  j.end_obj();
}

struct Args {
  std::string workload, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "cholesky|stencil_fine|nested_submit --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans") a.spans = v;
    else usage("unknown option");
  }
  if (a.seconds <= 0 || a.seconds > 60) usage("--seconds must be in (0, 60]");
  if (a.trace && a.spans.empty()) usage("--trace 1 needs --spans");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, unsigned threads) {
  if (a.workload == "cholesky")
    return std::make_unique<CholeskyWorkload>(a.seed);
  if (a.workload == "stencil_fine")
    return std::make_unique<StencilWorkload>(a.seed);
  if (a.workload == "nested_submit")
    return std::make_unique<NestedWorkload>(a.seed, threads);
  usage("unknown workload");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::uint64_t run_start = now_ns();
  const auto elapsed = [&] { return seconds_between(run_start, now_ns()); };
  g_spans.register_this_thread();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(4u, hw);
  std::unique_ptr<Workload> wl = make_workload(args, threads);
  const Config cfg = wl->config(threads);

  // Set-up: Runtime construction plus task-type registration, repeated.
  std::vector<double> ctor_s, setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const std::uint64_t t0 = now_ns();
    Runtime rt(cfg);
    const std::uint64_t t1 = now_ns();
    wl->register_types(rt);
    const std::uint64_t t2 = now_ns();
    ctor_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
  }

  int attempted = 0, failed = 0;
  const auto run_phase = [&](double until_s, std::size_t min_iters, Phase& p,
                             Trace* trace) {
    const bool traced = trace != nullptr;
    Config c = cfg;
    c.tracing = traced;
    Runtime rt(c);
    wl->register_types(rt);
    // Warm-up: checked and counted, not timed.
    ++attempted;
    if (!wl->iterate(rt, false).ok) ++failed;
    if (traced) {
      rt.tracer().clear();
      g_spans.set_recording(true);
    }
    p.before = rt.stats();
    const std::uint64_t w0 = now_ns();
    while ((elapsed() < until_s || p.iters.size() < min_iters) &&
           elapsed() < kHardCapSeconds) {
      p.iters.push_back(wl->iterate(rt, traced));
      ++attempted;
      if (!p.iters.back().ok) ++failed;
      if (traced) {
        const std::vector<TraceEvent> ev = rt.tracer().collect();
        trace->events.insert(trace->events.end(), ev.begin(), ev.end());
        rt.tracer().clear();
        if (trace->events.size() >= kTracedEventCap) break;
      }
    }
    p.after = rt.stats();
    p.window_s = seconds_between(w0, now_ns());
    g_spans.set_recording(false);
    if (traced)
      for (const TaskTypeInfo& t : rt.task_types())
        trace->type_names.push_back(t.name);
  };

  Json j;
  j.begin_obj();
  j.str("workload", args.workload);
  j.uint("seed", args.seed);
  j.uint("threads", threads);
  j.uint("nproc", hw);
  write_config(j, cfg);
  j.uint("tasks_per_iter", wl->tasks_per_iter());
  j.num("flops_per_iter", wl->flops_per_iter());
  j.uint("copy_bytes_per_iter", wl->copy_bytes_per_iter());
  j.uint("blas_block", static_cast<std::uint64_t>(wl->blas_block()));
  j.begin_arr("setup_s");
  for (double s : setup_s) j.num(nullptr, s);
  j.end_arr();
  j.begin_arr("ctor_s");
  for (double s : ctor_s) j.num(nullptr, s);
  j.end_arr();

  const double measure_from = elapsed();
  if (!args.trace) {
    Phase p;
    run_phase(measure_from + args.seconds, kMinIters, p, nullptr);
    write_phase(j, "untraced", p);
  } else {
    Phase ref, with_trace;
    Trace trace;
    // Traced first: it may stop early at the event cap, and the reference
    // phase then fills the rest of the measured time.
    run_phase(measure_from + args.seconds / 2, 2, with_trace, &trace);
    run_phase(measure_from + args.seconds, 10, ref, nullptr);
    write_phase(j, "untraced", ref);
    write_phase(j, "traced", with_trace);
    j.begin_obj("baselines");
    wl->baselines(j, threads, attempted, failed);
    j.end_obj();

    std::ofstream os(args.spans);
    g_spans.write(os);
    for (const TraceEvent& e : trace.events)
      os << "T\t" << trace.type_names.at(e.type_id) << '\t' << e.worker << '\t'
         << e.start_ns << '\t' << e.end_ns << '\t' << e.seq << '\t'
         << e.parent_seq << '\n';
    os.flush();
    SMPSS_CHECK(os.good(), "could not write the span file");
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.uint("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  j.uint("attempted", static_cast<std::uint64_t>(attempted));
  j.uint("failed", static_cast<std::uint64_t>(failed));
  j.end_obj();
  std::printf("%s\n", j.text().c_str());
  return 0;
}
