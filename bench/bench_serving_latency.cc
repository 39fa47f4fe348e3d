// Serving latency under concurrency: throughput and P50/P99 of the async
// Submit path against the serialized baseline.
//
// Two production-shaped request mixes (TIM+ and IMM, k in {10,25,50},
// eps in {0.3,0.4}) run against one WC power-law graph:
//
//   repeat    — every request shares one sampling seed: the high-reuse
//               regime where concurrent requests mostly replay the shared
//               RR prefix and hit the phase cache (the PR-4 batch mix);
//   multiseed — every request gets its own seed: the low-reuse regime
//               where concurrency is pure parallel sampling across
//               independent streams.
//
// Each mix is measured serialized (sequential Solve, the pre-concurrency
// serving path) and then closed-loop at swept concurrency levels: c
// submitter threads each Submit(...).get() against an engine with c
// request workers. Each of these runs is timed over kPasses passes, each
// on a fresh engine, and the pass with the median wall time is recorded,
// so one slow or fast pass of a short request list does not set the
// figure. Every pass's responses are verified seed-identical to the
// serialized run — concurrency must never move a result — and
// per-request latency percentiles (bench_util.h) plus requests/sec of
// the median pass land in BENCH_bench_serving_latency.json. Throughput
// scales with available cores; `hardware_concurrency` is recorded so
// baselines from different machines compare honestly.
//
// Usage: bench_serving_latency [--scale=0.5] [--threads=1] [--seed=7]
//        [--repeats=2] [--concurrency=1,2,4,8]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serving/serving_engine.h"
#include "util/timer.h"

namespace timpp {
namespace {

// Passes per timed run; odd, so the median pass is one of them.
constexpr int kPasses = 5;

std::vector<ImRequest> BuildMix(uint64_t seed, int repeats,
                                bool per_request_seeds) {
  std::vector<ImRequest> requests;
  for (int r = 0; r < repeats; ++r) {
    for (const char* algo : {"tim+", "imm"}) {
      for (int k : {10, 25, 50}) {
        for (double eps : {0.4, 0.3}) {
          ImRequest request;
          request.graph = "g";
          request.algo = algo;
          request.k = k;
          request.epsilon = eps;
          request.seed =
              per_request_seeds ? seed + 1 + requests.size() : seed;
          requests.push_back(request);
        }
      }
    }
  }
  return requests;
}

struct RunStats {
  double wall_sec = 0.0;
  std::vector<double> latencies_ms;
  std::vector<ImResponse> responses;
};

/// Sequential Solve over a fresh engine — the serialized baseline.
RunStats RunSerialized(const Graph& graph,
                       const std::vector<ImRequest>& requests,
                       const ServingOptions& base_options) {
  ServingEngine engine(base_options);
  if (!engine.RegisterGraph("g", graph).ok()) std::exit(1);
  RunStats stats;
  stats.responses.resize(requests.size());
  stats.latencies_ms.reserve(requests.size());
  Timer timer;
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    stats.responses[i] = engine.Solve(requests[i]);
    stats.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  stats.wall_sec = timer.ElapsedSeconds();
  return stats;
}

/// Closed loop: `concurrency` submitter threads each drive
/// Submit(...).get() until the request list is drained.
RunStats RunConcurrent(const Graph& graph,
                       const std::vector<ImRequest>& requests,
                       const ServingOptions& base_options,
                       unsigned concurrency) {
  ServingOptions options = base_options;
  options.submit_workers = concurrency;
  options.max_pending_requests = 0;  // finite bench batch: never shed
  ServingEngine engine(options);
  if (!engine.RegisterGraph("g", graph).ok()) std::exit(1);

  RunStats stats;
  stats.responses.resize(requests.size());
  std::vector<double> latencies(requests.size());
  std::atomic<size_t> next{0};
  Timer timer;
  std::vector<std::thread> submitters;
  submitters.reserve(concurrency);
  for (unsigned t = 0; t < concurrency; ++t) {
    submitters.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        const auto start = std::chrono::steady_clock::now();
        stats.responses[i] = engine.Submit(requests[i]).get();
        latencies[i] = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  stats.wall_sec = timer.ElapsedSeconds();
  stats.latencies_ms = std::move(latencies);
  return stats;
}

/// Every concurrent response must carry the seeds the serialized run
/// produced — concurrency is a scheduling choice, never a result change.
void VerifyIdentical(const RunStats& reference, const RunStats& run,
                     const std::string& label) {
  for (size_t i = 0; i < reference.responses.size(); ++i) {
    if (!run.responses[i].status.ok() ||
        run.responses[i].result.seeds != reference.responses[i].result.seeds) {
      std::fprintf(stderr,
                   "FATAL: %s request %zu diverged from the serialized "
                   "run\n",
                   label.c_str(), i);
      std::exit(1);
    }
  }
}

/// Runs `pass` kPasses times, verifies each pass against `reference`
/// (against the first pass when null) and returns the pass with the median
/// wall time.
template <typename Pass>
RunStats MedianPass(const Pass& pass, const RunStats* reference,
                    const std::string& label) {
  std::vector<RunStats> passes;
  for (int p = 0; p < kPasses; ++p) {
    passes.push_back(pass());
    VerifyIdentical(reference != nullptr ? *reference : passes.front(),
                    passes.back(), label);
  }
  std::nth_element(passes.begin(), passes.begin() + kPasses / 2,
                   passes.end(), [](const RunStats& a, const RunStats& b) {
                     return a.wall_sec < b.wall_sec;
                   });
  return std::move(passes[kPasses / 2]);
}

void ReportRun(const std::string& prefix, const RunStats& stats,
               double serial_sec) {
  const double req = static_cast<double>(stats.responses.size());
  const double per_sec = req / stats.wall_sec;
  const bench::LatencySummary lat =
      bench::RecordLatencyPercentiles(prefix, stats.latencies_ms);
  bench::RecordMetric(prefix + ".requests_per_sec", per_sec);
  bench::RecordMetric(prefix + ".speedup", serial_sec / stats.wall_sec);
  std::printf("%-22s %8.2f req/s  p50 %7.1fms  p90 %7.1fms  p99 %7.1fms"
              "  (%.2fx)\n",
              prefix.c_str(), per_sec, lat.p50_ms, lat.p90_ms, lat.p99_ms,
              serial_sec / stats.wall_sec);
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::ConfigureBenchOutput(flags);
  const double scale = flags.GetDouble("scale", 0.5);
  const unsigned threads = static_cast<unsigned>(flags.GetInt("threads", 1));
  const uint64_t seed = flags.GetInt("seed", 7);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 2));

  std::vector<unsigned> levels;
  {
    const std::string spec = flags.GetString("concurrency", "1,2,4,8");
    unsigned value = 0;
    for (char c : spec + ",") {
      if (c >= '0' && c <= '9') {
        value = value * 10 + static_cast<unsigned>(c - '0');
      } else if (value != 0) {
        levels.push_back(value);
        value = 0;
      }
    }
    if (levels.empty()) levels = {1, 2, 4, 8};
  }

  const NodeId n = static_cast<NodeId>(20000 * scale);
  const Graph graph =
      bench::MustBuildWcPowerLaw(std::max<NodeId>(n, 500), 10, seed);

  bench::PrintHeader(
      "Serving latency under concurrency: Submit vs serialized Solve",
      "WC power-law n=" + std::to_string(graph.num_nodes()) +
          "; TIM+/IMM mix, k in {10,25,50}, eps in {0.3,0.4}, x" +
          std::to_string(repeats) +
          "; closed loop, c submitters against c request workers; "
          "median of " + std::to_string(kPasses) +
          " passes per level, each verified seed-identical to the "
          "serialized run");
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("graph: n=%u m=%llu | %u sampling thread(s)/request | "
              "hardware_concurrency=%u\n\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), threads,
              hardware);
  bench::RecordMetric("hardware_concurrency",
                      static_cast<double>(hardware));

  ServingOptions base_options;
  base_options.num_threads = threads;

  for (const bool per_request_seeds : {false, true}) {
    const std::string mix = per_request_seeds ? "multiseed" : "repeat";
    const std::vector<ImRequest> requests =
        BuildMix(seed, repeats, per_request_seeds);
    std::printf("--- mix %s: %zu requests ---\n", mix.c_str(),
                requests.size());

    const RunStats serial = MedianPass(
        [&] { return RunSerialized(graph, requests, base_options); },
        nullptr, mix + " serial");
    ReportRun(mix + ".serial", serial, serial.wall_sec);

    double speedup_at_max = 1.0;
    unsigned max_level = 1;
    for (unsigned level : levels) {
      const RunStats run = MedianPass(
          [&] { return RunConcurrent(graph, requests, base_options, level); },
          &serial, mix + " c" + std::to_string(level));
      ReportRun(mix + ".c" + std::to_string(level), run, serial.wall_sec);
      if (level >= max_level) {
        max_level = level;
        speedup_at_max = serial.wall_sec / run.wall_sec;
      }
    }
    bench::RecordMetric(mix + ".speedup_at_" + std::to_string(max_level),
                        speedup_at_max);
    std::printf("\n");
  }
  bench::RecordMetric("results.identical", 1.0);
}

}  // namespace
}  // namespace timpp

int main(int argc, char** argv) {
  timpp::Run(argc, argv);
  return 0;
}
