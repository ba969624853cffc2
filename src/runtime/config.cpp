#include "runtime/config.hpp"

#include <algorithm>
#include <string_view>

#include "common/affinity.hpp"
#include "common/env.hpp"

namespace smpss {

namespace {

/// Every SMPSS_* variable from_env reads, and the settings retired since.
constexpr std::string_view kSettings[] = {
    "SMPSS_NUM_THREADS",  "SMPSS_TASK_WINDOW", "SMPSS_RENAME_MEMORY_MB",
    "SMPSS_RENAMING",     "SMPSS_NESTED",      "SMPSS_CHAIN_DEPTH",
    "SMPSS_POOL_CACHE",   "SMPSS_SCHEDULER",   "SMPSS_STEAL_ORDER",
    "SMPSS_PIN_THREADS",  "SMPSS_TRACE",       "SMPSS_RECORD_GRAPH",
    "SMPSS_STREAMS",      "SMPSS_STATS_PERIOD_MS", "SMPSS_STATS_FILE",
    "SMPSS_PROCS"};
constexpr std::string_view kRetired[] = {
    "SMPSS_DEP_LOCKFREE",       "SMPSS_DEP_SHARDS",
    "SMPSS_SCHED_POLICY",       "SMPSS_AWARE_CRIT_PPM",
    "SMPSS_AWARE_LOCALITY_PPM", "SMPSS_AWARE_COST_NS"};

}  // namespace

Config Config::from_env() {
  Config c;
  if (auto v = env_int("SMPSS_NUM_THREADS"); v && *v > 0)
    c.num_threads = static_cast<unsigned>(*v);
  if (auto v = env_int("SMPSS_TASK_WINDOW"); v && *v > 0)
    c.task_window = static_cast<std::size_t>(*v);
  if (auto v = env_int("SMPSS_RENAME_MEMORY_MB"); v && *v > 0)
    c.rename_memory_limit = static_cast<std::size_t>(*v) << 20;
  if (auto v = env_bool("SMPSS_RENAMING")) c.renaming = *v;
  if (auto v = env_bool("SMPSS_NESTED")) c.nested_tasks = *v;
  if (auto v = env_int("SMPSS_CHAIN_DEPTH"); v && *v >= 0)
    c.chain_depth = static_cast<unsigned>(*v);
  if (auto v = env_int("SMPSS_POOL_CACHE"); v && *v >= 0)
    c.pool_cache = static_cast<unsigned>(*v);
  if (auto v = env_choice("SMPSS_SCHEDULER", {"distributed", "centralized"}))
    c.scheduler_mode =
        *v == 0 ? SchedulerMode::Distributed : SchedulerMode::Centralized;
  if (auto v = env_choice("SMPSS_STEAL_ORDER", {"creation", "random"}))
    c.steal_order = *v == 0 ? StealOrder::CreationOrder : StealOrder::Random;
  if (auto v = env_bool("SMPSS_PIN_THREADS")) c.pin_threads = *v;
  if (auto v = env_bool("SMPSS_TRACE")) c.tracing = *v;
  if (auto v = env_bool("SMPSS_RECORD_GRAPH")) c.record_graph = *v;
  if (auto v = env_int("SMPSS_STREAMS"); v && *v > 0)
    c.max_streams = static_cast<unsigned>(*v);
  if (auto v = env_int("SMPSS_STATS_PERIOD_MS"); v && *v >= 0)
    c.stats_period_ms = static_cast<unsigned>(*v);
  if (auto v = env_string("SMPSS_STATS_FILE")) c.stats_path = *v;
  if (auto v = env_int("SMPSS_PROCS"); v && *v > 0)
    c.procs = static_cast<unsigned>(*v);
  // One line per set SMPSS_* name that configures nothing, so a misspelled
  // or retired setting is never silently ignored. The tests' and benches'
  // own variables are legal.
  for (const auto& [name, value] : env_with_prefix("SMPSS_")) {
    if (std::ranges::count(kSettings, name) != 0 ||
        name.starts_with("SMPSS_TEST_") || name.starts_with("SMPSS_FUZZ_") ||
        name == "SMPSS_BENCH_SCALE")
      continue;
    env_reject(name.c_str(), value,
               std::ranges::count(kRetired, name) != 0 ? "retired setting"
                                                        : "unknown setting");
  }
  return c;
}

void Config::normalize() {
  if (num_threads == 0) num_threads = hardware_concurrency();
  if (num_threads < 1) num_threads = 1;
  if (task_window < 2) task_window = 2;
  if (task_window_low == 0 || task_window_low >= task_window)
    task_window_low = task_window / 2;
  if (spin_acquires == 0) spin_acquires = 1;
  if (max_streams == 0) max_streams = 1;
  if (procs < 1) procs = 1;
  if (procs > 16) procs = 16;
}

}  // namespace smpss
