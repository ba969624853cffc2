// Service-mode saturation: N concurrent client threads, each with its own
// StreamHandle, multiplex small dependency chains (64 independent inout
// chains per stream) onto one persistent runtime.
//
// Two load models per stream count:
//
//   * OpenLoop — clients pace submissions against a fixed arrival schedule
//     (next_deadline += period; sleep only when ahead). The runtime cannot
//     slow the offered load down by backpressure alone, so queueing delay
//     shows up in the retire-latency tail instead of vanishing into a
//     slower client. p99_ns bounded is the service-mode headline claim.
//   * ClosedLoop — clients submit as fast as admission lets them; measures
//     the saturated multiplexing throughput of the admission ring + sharded
//     analyzers.
//
// Counters: tasks_per_s (end-to-end rate), p50_ns / p99_ns (submit-to-retire
// latency over every stream's histogram, merged by Runtime::stats()). The CI
// bench runner serializes this into BENCH_service.json and bench_compare
// gates both the median throughput and the p99 tail:
//
//   ./bench/service_saturation --benchmark_out=BENCH_service.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runtime/runtime.hpp"

namespace {

constexpr int kLanesPerStream = 64;
constexpr int kTasksPerClientPerIter = 2000;
// Open-loop offered load per stream: one task every 10 us = 100k tasks/s.
// With 4+ streams that is well past the point where naive admission would
// collapse the trickle tail; the p99 gate keeps it honest.
constexpr auto kArrivalPeriod = std::chrono::microseconds(10);

struct ClientLanes {
  std::vector<long> cells;
  ClientLanes() : cells(kLanesPerStream, 0) {}
};

void run_clients(std::vector<smpss::StreamHandle>& streams,
                 std::vector<ClientLanes>& lanes, bool open_loop) {
  std::vector<std::thread> clients;
  clients.reserve(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    clients.emplace_back([&, s] {
      smpss::StreamHandle& stream = streams[s];
      long* base = lanes[s].cells.data();
      auto deadline = std::chrono::steady_clock::now();
      for (int i = 0; i < kTasksPerClientPerIter; ++i) {
        if (open_loop) {
          deadline += kArrivalPeriod;
          // Open loop: sleep only when ahead of schedule; when behind,
          // submit immediately and let the backlog land in the tail.
          if (auto now = std::chrono::steady_clock::now(); now < deadline)
            std::this_thread::sleep_until(deadline);
        }
        stream.post([](long* q) { *q += 1; },
                    smpss::inout(base + (i % kLanesPerStream)));
      }
      stream.drain();
    });
  }
  for (auto& t : clients) t.join();
}

void service_bench(benchmark::State& state, bool open_loop) {
  const int nstreams = static_cast<int>(state.range(0));
  smpss::Config cfg;
  cfg.nested_tasks = true;
  cfg.task_window = 4096;
  // Workers only — the clients are external threads, as in a real service.
  cfg.num_threads = 4;
  smpss::Runtime rt(cfg);

  std::vector<smpss::StreamHandle> streams;
  std::vector<ClientLanes> lanes(static_cast<std::size_t>(nstreams));
  for (int s = 0; s < nstreams; ++s)
    streams.push_back(
        rt.open_stream({.name = "client-" + std::to_string(s)}));

  std::uint64_t tasks = 0;
  for (auto _ : state) {
    run_clients(streams, lanes, open_loop);
    tasks += static_cast<std::uint64_t>(nstreams) * kTasksPerClientPerIter;
  }

  const smpss::StatsSnapshot st = rt.stats();
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.counters["streams"] =
      benchmark::Counter(static_cast<double>(nstreams));
  state.counters["p50_ns"] =
      benchmark::Counter(static_cast<double>(st.service_p50_ns));
  state.counters["p99_ns"] =
      benchmark::Counter(static_cast<double>(st.service_p99_ns));
}

void BM_ServiceSaturation_OpenLoop(benchmark::State& state) {
  service_bench(state, /*open_loop=*/true);
}

void BM_ServiceSaturation_ClosedLoop(benchmark::State& state) {
  service_bench(state, /*open_loop=*/false);
}

void stream_axis(benchmark::internal::Benchmark* b) {
  for (long s : {4L, 8L}) b->Arg(s);
}

}  // namespace

BENCHMARK(BM_ServiceSaturation_OpenLoop)->Apply(stream_axis)->UseRealTime();
BENCHMARK(BM_ServiceSaturation_ClosedLoop)->Apply(stream_axis)->UseRealTime();
