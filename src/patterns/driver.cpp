#include "patterns/driver.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "baselines/forkjoin/forkjoin.hpp"
#include "baselines/taskpool/taskpool.hpp"
#include "common/check.hpp"
#include "runtime/runtime.hpp"

namespace smpss::patterns {

const char* to_string(LowerMode m) noexcept {
  switch (m) {
    case LowerMode::Address: return "address";
    case LowerMode::Region: return "region";
  }
  return "?";
}

const char* to_string(SubmitShape s) noexcept {
  switch (s) {
    case SubmitShape::Flat: return "flat";
    case SubmitShape::NestedSteps: return "nested_steps";
  }
  return "?";
}

const char* to_string(AccumMode a) noexcept {
  switch (a) {
    case AccumMode::None: return "none";
    case AccumMode::Commutative: return "commutative";
    case AccumMode::Concurrent: return "concurrent";
  }
  return "?";
}

std::string RunOptions::describe() const {
  std::ostringstream os;
  os << "mode=" << to_string(mode) << " shape=" << to_string(shape)
     << (join_steps ? "+join" : "") << " nfields=" << nfields
     << " threads=" << cfg.num_threads << " renaming=" << cfg.renaming
     << " nested=" << cfg.nested_tasks
     << " chain=" << cfg.chain_depth << " pool=" << cfg.pool_cache
     << " window=" << cfg.task_window
     << " sched=" << to_string(cfg.scheduler_mode);
  if (accum != AccumMode::None) os << " accum=" << to_string(accum);
  return os.str();
}

namespace {

// --- task bodies ---------------------------------------------------------------
// All bodies are trivially-copyable structs (not lambdas) so every pattern
// and arity shares one closure instantiation per shape — and the capture is
// self-contained: bodies read and write memory only through the resolved
// parameters the runtime hands them, never through the image.

/// Address mode, write-only output: fold the input cells in parameter order.
struct AddrBody {
  PatternSpec spec;
  std::int32_t t, p;
  template <typename... In>
  void operator()(Cell* dst, In... ins) const {
    std::uint64_t h = value_seed(spec, t, p);
    ((h = value_fold(h, *ins)), ...);
    *dst = value_finish(spec, h, t, p);
  }
};

/// Address mode, in-place chain step: read-modify-write of one cell.
struct AddrChainBody {
  PatternSpec spec;
  std::int32_t t, p;
  void operator()(Cell* cell) const {
    std::uint64_t h = value_seed(spec, t, p);
    h = value_fold(h, *cell);
    *cell = value_finish(spec, h, t, p);
  }
};

/// Region mode: the resolved parameters are row base pointers (regions
/// never relocate data); the body walks its captured intervals to read the
/// exact dependence cells in canonical order.
struct RegionBody {
  PatternSpec spec;
  std::int32_t t, p;
  std::array<Interval, kMaxIntervals> iv;
  std::uint32_t niv;

  std::uint64_t fold_inputs(const Cell* src) const {
    std::uint64_t h = value_seed(spec, t, p);
    for (std::uint32_t k = 0; k < niv; ++k)
      for (long q = iv[k].lo; q <= iv[k].hi; ++q)
        h = value_fold(h, src[q]);
    return h;
  }

  /// niv == 0 (first timestep / trivial): no input rows declared.
  void operator()(Cell* dst) const {
    dst[p] = value_finish(spec, value_seed(spec, t, p), t, p);
  }
  /// One resolved base per declared interval; all name the same source row.
  template <typename... Rest>
  void operator()(Cell* dst, const Cell* src, Rest...) const {
    dst[p] = value_finish(spec, fold_inputs(src), t, p);
  }
};

/// Region mode, in-place chain step (single-row image).
struct RegionChainBody {
  PatternSpec spec;
  std::int32_t t, p;
  void operator()(Cell* base) const {
    std::uint64_t h = value_seed(spec, t, p);
    h = value_fold(h, base[p]);
    base[p] = value_finish(spec, h, t, p);
  }
};

// --- AccumMode bodies ----------------------------------------------------------
// Same folds, plus one commuting write: add the produced value into the
// step accumulator. Under Dir::Commutative `acc` is the shared cell itself
// (the group token excludes concurrent members); under Dir::Concurrent it
// is this worker's zero-initialized private, combined at group close.
// Wrapping uint64 addition commutes, so both match oracle_step_sums
// bit-exactly in any execution order.

struct AddrAccumBody {
  PatternSpec spec;
  std::int32_t t, p;
  template <typename... In>
  void operator()(Cell* dst, Cell* acc, In... ins) const {
    std::uint64_t h = value_seed(spec, t, p);
    ((h = value_fold(h, *ins)), ...);
    *dst = value_finish(spec, h, t, p);
    *acc += *dst;
  }
};

struct AddrChainAccumBody {
  PatternSpec spec;
  std::int32_t t, p;
  void operator()(Cell* cell, Cell* acc) const {
    std::uint64_t h = value_seed(spec, t, p);
    h = value_fold(h, *cell);
    *cell = value_finish(spec, h, t, p);
    *acc += *cell;
  }
};

struct RegionAccumBody {
  PatternSpec spec;
  std::int32_t t, p;
  std::array<Interval, kMaxIntervals> iv;
  std::uint32_t niv;

  void operator()(Cell* dst, Cell* acc) const {
    dst[p] = value_finish(spec, value_seed(spec, t, p), t, p);
    *acc += dst[p];
  }
  template <typename... Rest>
  void operator()(Cell* dst, Cell* acc, const Cell* src, Rest...) const {
    std::uint64_t h = value_seed(spec, t, p);
    for (std::uint32_t k = 0; k < niv; ++k)
      for (long q = iv[k].lo; q <= iv[k].hi; ++q)
        h = value_fold(h, src[q]);
    dst[p] = value_finish(spec, h, t, p);
    *acc += dst[p];
  }
};

struct RegionChainAccumBody {
  PatternSpec spec;
  std::int32_t t, p;
  void operator()(Cell* base, Cell* acc) const {
    std::uint64_t h = value_seed(spec, t, p);
    h = value_fold(h, base[p]);
    base[p] = value_finish(spec, h, t, p);
    *acc += base[p];
  }
};

// --- arity dispatch -------------------------------------------------------------
// rt.spawn's parameter list is compile-time; the generator's fan-in is a
// runtime value. These switches instantiate one spawn per arity 0..8 and
// route each task to the matching one. Templated over the sink: Runtime&
// and StreamHandle& share the spawn(type, fn, params...) signature, so the
// same lowering drives the batch engine and a service-mode stream.

template <std::size_t N, typename RT>
void spawn_addr_n(RT& rt, TaskType tt, const AddrBody& body, Cell* dst,
                  [[maybe_unused]] const std::array<const Cell*,
                                                    kMaxAddressFanIn>& ins) {
  [&]<std::size_t... Is>(std::index_sequence<Is...>) {
    rt.spawn(tt, body, out(dst), in(ins[Is])...);
  }(std::make_index_sequence<N>{});
}

template <typename RT>
void spawn_addr(RT& rt, TaskType tt, const AddrBody& body, Cell* dst,
                const std::array<const Cell*, kMaxAddressFanIn>& ins,
                std::size_t n) {
  switch (n) {
    case 0: spawn_addr_n<0>(rt, tt, body, dst, ins); break;
    case 1: spawn_addr_n<1>(rt, tt, body, dst, ins); break;
    case 2: spawn_addr_n<2>(rt, tt, body, dst, ins); break;
    case 3: spawn_addr_n<3>(rt, tt, body, dst, ins); break;
    case 4: spawn_addr_n<4>(rt, tt, body, dst, ins); break;
    case 5: spawn_addr_n<5>(rt, tt, body, dst, ins); break;
    case 6: spawn_addr_n<6>(rt, tt, body, dst, ins); break;
    case 7: spawn_addr_n<7>(rt, tt, body, dst, ins); break;
    case 8: spawn_addr_n<8>(rt, tt, body, dst, ins); break;
    default:
      SMPSS_CHECK(false,
                  "address-mode fan-in exceeds kMaxAddressFanIn — lower this "
                  "pattern in region mode (see address_mode_ok)");
  }
}

template <std::size_t N, typename RT>
void spawn_region_n(RT& rt, TaskType tt, const RegionBody& body,
                    Cell* dst_row, [[maybe_unused]] const Cell* src_row) {
  [&]<std::size_t... Is>(std::index_sequence<Is...>) {
    rt.spawn(tt, body, out(dst_row, Region{span_from(body.p, 1)}),
             in(src_row, Region{bounds(body.iv[Is].lo, body.iv[Is].hi)})...);
  }(std::make_index_sequence<N>{});
}

template <typename RT>
void spawn_region(RT& rt, TaskType tt, const RegionBody& body,
                  Cell* dst_row, const Cell* src_row) {
  switch (body.niv) {
    case 0: spawn_region_n<0>(rt, tt, body, dst_row, src_row); break;
    case 1: spawn_region_n<1>(rt, tt, body, dst_row, src_row); break;
    case 2: spawn_region_n<2>(rt, tt, body, dst_row, src_row); break;
    case 3: spawn_region_n<3>(rt, tt, body, dst_row, src_row); break;
    case 4: spawn_region_n<4>(rt, tt, body, dst_row, src_row); break;
    case 5: spawn_region_n<5>(rt, tt, body, dst_row, src_row); break;
    case 6: spawn_region_n<6>(rt, tt, body, dst_row, src_row); break;
    case 7: spawn_region_n<7>(rt, tt, body, dst_row, src_row); break;
    case 8: spawn_region_n<8>(rt, tt, body, dst_row, src_row); break;
    default: SMPSS_CHECK(false, "interval count exceeds kMaxIntervals");
  }
}

// --- AccumMode arity dispatch ---------------------------------------------------
// The accumulator rides as the second parameter (body signature is
// (dst, acc, ins...)): commutative(acc) under AccumMode::Commutative,
// reduction(Plus{}, acc) under AccumMode::Concurrent. It is always an
// address-mode parameter — commuting modes are whole-object only — even
// when the surrounding task is lowered in region mode, which exercises
// mixed region/address parameter routing on one task.

template <std::size_t N, typename RT>
void spawn_addr_accum_n(RT& rt, TaskType tt, const AddrAccumBody& body,
                        Cell* dst, Cell* acc, AccumMode am,
                        [[maybe_unused]] const std::array<
                            const Cell*, kMaxAddressFanIn>& ins) {
  [&]<std::size_t... Is>(std::index_sequence<Is...>) {
    if (am == AccumMode::Commutative)
      rt.spawn(tt, body, out(dst), commutative(acc), in(ins[Is])...);
    else
      rt.spawn(tt, body, out(dst), reduction(Plus{}, acc), in(ins[Is])...);
  }(std::make_index_sequence<N>{});
}

template <typename RT>
void spawn_addr_accum(RT& rt, TaskType tt, const AddrAccumBody& body,
                      Cell* dst, Cell* acc, AccumMode am,
                      const std::array<const Cell*, kMaxAddressFanIn>& ins,
                      std::size_t n) {
  switch (n) {
    case 0: spawn_addr_accum_n<0>(rt, tt, body, dst, acc, am, ins); break;
    case 1: spawn_addr_accum_n<1>(rt, tt, body, dst, acc, am, ins); break;
    case 2: spawn_addr_accum_n<2>(rt, tt, body, dst, acc, am, ins); break;
    case 3: spawn_addr_accum_n<3>(rt, tt, body, dst, acc, am, ins); break;
    case 4: spawn_addr_accum_n<4>(rt, tt, body, dst, acc, am, ins); break;
    case 5: spawn_addr_accum_n<5>(rt, tt, body, dst, acc, am, ins); break;
    case 6: spawn_addr_accum_n<6>(rt, tt, body, dst, acc, am, ins); break;
    case 7: spawn_addr_accum_n<7>(rt, tt, body, dst, acc, am, ins); break;
    case 8: spawn_addr_accum_n<8>(rt, tt, body, dst, acc, am, ins); break;
    default:
      SMPSS_CHECK(false,
                  "address-mode fan-in exceeds kMaxAddressFanIn — lower this "
                  "pattern in region mode (see address_mode_ok)");
  }
}

template <std::size_t N, typename RT>
void spawn_region_accum_n(RT& rt, TaskType tt, const RegionAccumBody& body,
                          Cell* dst_row, Cell* acc, AccumMode am,
                          [[maybe_unused]] const Cell* src_row) {
  [&]<std::size_t... Is>(std::index_sequence<Is...>) {
    if (am == AccumMode::Commutative)
      rt.spawn(tt, body, out(dst_row, Region{span_from(body.p, 1)}),
               commutative(acc),
               in(src_row, Region{bounds(body.iv[Is].lo, body.iv[Is].hi)})...);
    else
      rt.spawn(tt, body, out(dst_row, Region{span_from(body.p, 1)}),
               reduction(Plus{}, acc),
               in(src_row, Region{bounds(body.iv[Is].lo, body.iv[Is].hi)})...);
  }(std::make_index_sequence<N>{});
}

template <typename RT>
void spawn_region_accum(RT& rt, TaskType tt, const RegionAccumBody& body,
                        Cell* dst_row, Cell* acc, AccumMode am,
                        const Cell* src_row) {
  switch (body.niv) {
    case 0: spawn_region_accum_n<0>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 1: spawn_region_accum_n<1>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 2: spawn_region_accum_n<2>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 3: spawn_region_accum_n<3>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 4: spawn_region_accum_n<4>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 5: spawn_region_accum_n<5>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 6: spawn_region_accum_n<6>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 7: spawn_region_accum_n<7>(rt, tt, body, dst_row, acc, am, src_row); break;
    case 8: spawn_region_accum_n<8>(rt, tt, body, dst_row, acc, am, src_row); break;
    default: SMPSS_CHECK(false, "interval count exceeds kMaxIntervals");
  }
}

// --- per-step submission ---------------------------------------------------------

/// Spawn every point task of timestep `t`. Callable from the main thread
/// (Flat), from inside a step task (NestedSteps), or with a StreamHandle
/// sink (service mode).
template <typename RT>
void submit_step(RT& rt, TaskType tt, const PatternSpec& spec,
                 PatternImage& img, LowerMode mode, long t,
                 AccumMode am = AccumMode::None, Cell* accums = nullptr) {
  const long src_f = t > 0 ? (t - 1) % img.nfields : 0;
  const long dst_f = t % img.nfields;
  // The chain pattern on a single-row image is the in-place lowering: one
  // inout parameter carrying both the read of step t-1 and the write of
  // step t (the renaming copy-in path). t == 0 has no input and goes
  // through the general out() lowering like every other pattern.
  const bool in_place =
      spec.kind == PatternKind::Chain && img.nfields == 1 && t > 0;
  Cell* acc = am != AccumMode::None ? &accums[t] : nullptr;
  Interval iv[kMaxIntervals];
  for (long p = 0; p < spec.width_at(t); ++p) {
    const std::size_t n = spec.dependencies(t, p, iv);
    const std::int32_t t32 = static_cast<std::int32_t>(t);
    const std::int32_t p32 = static_cast<std::int32_t>(p);
    if (mode == LowerMode::Address) {
      if (in_place) {
        if (am == AccumMode::None)
          rt.spawn(tt, AddrChainBody{spec, t32, p32}, inout(&img.at(0, p)));
        else if (am == AccumMode::Commutative)
          rt.spawn(tt, AddrChainAccumBody{spec, t32, p32},
                   inout(&img.at(0, p)), commutative(acc));
        else
          rt.spawn(tt, AddrChainAccumBody{spec, t32, p32},
                   inout(&img.at(0, p)), reduction(Plus{}, acc));
        continue;
      }
      std::array<const Cell*, kMaxAddressFanIn> ins{};
      std::size_t c = 0;
      for (std::size_t k = 0; k < n; ++k)
        for (long q = iv[k].lo; q <= iv[k].hi; ++q) {
          SMPSS_CHECK(c < static_cast<std::size_t>(kMaxAddressFanIn),
                      "address-mode fan-in exceeds kMaxAddressFanIn");
          ins[c++] = &img.at(src_f, q);
        }
      if (am == AccumMode::None)
        spawn_addr(rt, tt, AddrBody{spec, t32, p32}, &img.at(dst_f, p), ins,
                   c);
      else
        spawn_addr_accum(rt, tt, AddrAccumBody{spec, t32, p32},
                         &img.at(dst_f, p), acc, am, ins, c);
    } else {
      if (in_place) {
        if (am == AccumMode::None)
          rt.spawn(tt, RegionChainBody{spec, t32, p32},
                   inout(img.row(0), Region{span_from(p, 1)}));
        else if (am == AccumMode::Commutative)
          rt.spawn(tt, RegionChainAccumBody{spec, t32, p32},
                   inout(img.row(0), Region{span_from(p, 1)}),
                   commutative(acc));
        else
          rt.spawn(tt, RegionChainAccumBody{spec, t32, p32},
                   inout(img.row(0), Region{span_from(p, 1)}),
                   reduction(Plus{}, acc));
        continue;
      }
      if (am == AccumMode::None) {
        RegionBody body{spec, t32, p32, {}, static_cast<std::uint32_t>(n)};
        std::copy(iv, iv + n, body.iv.begin());
        spawn_region(rt, tt, body, img.row(dst_f), img.row(src_f));
      } else {
        RegionAccumBody body{spec, t32, p32, {},
                             static_cast<std::uint32_t>(n)};
        std::copy(iv, iv + n, body.iv.begin());
        spawn_region_accum(rt, tt, body, img.row(dst_f), acc, am,
                           img.row(src_f));
      }
    }
  }
}

}  // namespace

void submit_pattern(Runtime& rt, const PatternSpec& spec, PatternImage& img,
                    LowerMode mode, SubmitShape shape, bool join_steps,
                    Cell* sentinel, AccumMode accum, Cell* accums) {
  spec.validate();
  SMPSS_CHECK(img.width == spec.width && img.nfields >= min_fields(spec),
              "image does not match the pattern spec");
  if (mode == LowerMode::Address)
    SMPSS_CHECK(address_mode_ok(spec),
                "pattern fan-in too wide for address mode — use region mode");
  SMPSS_CHECK(accum == AccumMode::None || accums != nullptr,
              "AccumMode needs a spec.steps-cell accumulator array");
  TaskType point = rt.register_task_type(
      std::string("pattern_point:") + to_string(spec.kind));

  if (shape == SubmitShape::Flat) {
    for (long t = 0; t < spec.steps; ++t)
      submit_step(rt, point, spec, img, mode, t, accum, accums);
    return;
  }

  SMPSS_CHECK(rt.config().nested_tasks,
              "NestedSteps submission needs Config::nested_tasks");
  SMPSS_CHECK(sentinel != nullptr,
              "NestedSteps needs a sentinel cell outliving the barrier");
  TaskType step = rt.register_task_type("pattern_step");
  Runtime* rtp = &rt;
  PatternImage* imgp = &img;
  for (long t = 0; t < spec.steps; ++t) {
    // Step tasks serialize on the sentinel (an inout chain), so step t+1's
    // body — and therefore all its point submissions — begins only after
    // step t's body has finished submitting. Point-task *execution* of
    // step t freely overlaps the submission of step t+1: the analyzers see
    // concurrent submit/retire traffic with real cross-step dependencies.
    rt.spawn(step,
             [rtp, imgp, spec, point, mode, t, join_steps, accum,
              accums](Cell* token) {
               *token = value_fold(*token, static_cast<Cell>(t));
               submit_step(*rtp, point, spec, *imgp, mode, t, accum, accums);
               if (join_steps) rtp->taskwait();
             },
             inout(sentinel));
  }
}

void submit_pattern_stream(StreamHandle& stream, TaskType point,
                           const PatternSpec& spec, PatternImage& img,
                           LowerMode mode) {
  spec.validate();
  SMPSS_CHECK(img.width == spec.width && img.nfields >= min_fields(spec),
              "image does not match the pattern spec");
  if (mode == LowerMode::Address)
    SMPSS_CHECK(address_mode_ok(spec),
                "pattern fan-in too wide for address mode — use region mode");
  // Flat (t, p) order only: the point type is pre-registered by the caller
  // (register_task_type requires zero live tasks, and other streams may
  // already be in flight when this one starts submitting).
  for (long t = 0; t < spec.steps; ++t)
    submit_step(stream, point, spec, img, mode, t);
}

RunResult run_pattern(const PatternSpec& spec, const RunOptions& opt) {
  const int nf = opt.nfields > 0 ? opt.nfields : default_fields(spec);
  PatternImage img = make_initial_image(spec, nf);
  Cell sentinel = 0;
  RunResult res;
  if (opt.accum != AccumMode::None)
    res.accums.assign(static_cast<std::size_t>(spec.steps), 0);
  {
    Runtime rt(opt.cfg);
    submit_pattern(rt, spec, img, opt.mode, opt.shape, opt.join_steps,
                   &sentinel, opt.accum,
                   res.accums.empty() ? nullptr : res.accums.data());
    rt.barrier();
    res.stats = rt.stats();
  }
  res.image = std::move(img);
  return res;
}

// --- dependency-free baselines ---------------------------------------------------

namespace {

/// The baselines synchronize per timestep, so a point executes against the
/// program's own image directly: within one step every task writes its own
/// dst cell and reads only src-row cells (or, for single-row chains, its
/// own cell) — race-free under a step barrier.
void execute_point_inplace(const PatternSpec& spec, PatternImage& img,
                           long t, long p) {
  Interval iv[kMaxIntervals];
  const long src_f = t > 0 ? (t - 1) % img.nfields : 0;
  const std::size_t n = spec.dependencies(t, p, iv);
  std::uint64_t h = value_seed(spec, t, p);
  for (std::size_t k = 0; k < n; ++k)
    for (long q = iv[k].lo; q <= iv[k].hi; ++q)
      h = value_fold(h, img.at(src_f, q));
  img.at(t % img.nfields, p) = value_finish(spec, h, t, p);
}

}  // namespace

PatternImage run_taskpool_baseline(const PatternSpec& spec, int nfields,
                                   unsigned nthreads) {
  PatternImage img = make_initial_image(spec, nfields);
  omp3::TaskPool pool(nthreads);
  pool.run_root([&] {
    for (long t = 0; t < spec.steps; ++t) {
      for (long p = 0; p < spec.width_at(t); ++p)
        pool.task([&spec, &img, t, p] {
          execute_point_inplace(spec, img, t, p);
        });
      pool.taskwait();
    }
  });
  return img;
}

PatternImage run_forkjoin_baseline(const PatternSpec& spec, int nfields,
                                   unsigned nthreads) {
  PatternImage img = make_initial_image(spec, nfields);
  fj::Scheduler sched(nthreads);
  sched.run_root([&](fj::Context& ctx) {
    for (long t = 0; t < spec.steps; ++t) {
      for (long p = 0; p < spec.width_at(t); ++p)
        ctx.spawn([&spec, &img, t, p](fj::Context&) {
          execute_point_inplace(spec, img, t, p);
        });
      ctx.sync();
    }
  });
  return img;
}

// --- graph fidelity ----------------------------------------------------------------

std::vector<std::pair<std::uint64_t, std::uint64_t>> intended_true_edges(
    const PatternSpec& spec) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  // Prefix sums so seq lookup is O(1) per task.
  std::vector<std::uint64_t> first_seq(
      static_cast<std::size_t>(spec.steps) + 1, 1);
  for (long t = 0; t < spec.steps; ++t)
    first_seq[static_cast<std::size_t>(t) + 1] =
        first_seq[static_cast<std::size_t>(t)] +
        static_cast<std::uint64_t>(spec.width_at(t));
  Interval iv[kMaxIntervals];
  for (long t = 1; t < spec.steps; ++t)
    for (long p = 0; p < spec.width_at(t); ++p) {
      const std::size_t n = spec.dependencies(t, p, iv);
      for (std::size_t k = 0; k < n; ++k)
        for (long q = iv[k].lo; q <= iv[k].hi; ++q)
          edges.emplace_back(
              first_seq[static_cast<std::size_t>(t) - 1] +
                  static_cast<std::uint64_t>(q),
              first_seq[static_cast<std::size_t>(t)] +
                  static_cast<std::uint64_t>(p));
    }
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace smpss::patterns
