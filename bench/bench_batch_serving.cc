// Batch-serving throughput: requests/sec with vs without GraphContext
// reuse.
//
// A production-shaped request mix (TIM+ and IMM, several k and ε values,
// one seed) runs twice against the same WC power-law graph:
//
//   standalone — every request through a fresh registry solver, the way
//                pre-serving callers looped over im_cli invocations;
//   serving    — the same requests through one ServingEngine, sharing the
//                RR collection prefix and the KPT/LB phase cache.
//
// Results are bit-identical by the per-index RNG contract (asserted); the
// interesting numbers are wall-clock, requests/sec, and how few RR sets
// the shared context actually sampled. Emits BENCH_bench_batch_serving.json
// (bench_util.h) for the CI trend report.
//
// Usage: bench_batch_serving [--scale=1] [--threads=4] [--seed=7]
//        [--repeats=2]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/solver_registry.h"
#include "serving/serving_engine.h"
#include "util/timer.h"

namespace timpp {
namespace {

std::vector<ImRequest> BuildRequestMix(uint64_t seed, int repeats) {
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
          request.seed = seed;
          requests.push_back(request);
        }
      }
    }
  }
  return requests;
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::ConfigureBenchOutput(flags);
  const double scale = flags.GetDouble("scale", 1.0);
  const unsigned threads = static_cast<unsigned>(flags.GetInt("threads", 4));
  const uint64_t seed = flags.GetInt("seed", 7);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 2));

  const NodeId n = static_cast<NodeId>(20000 * scale);
  Graph graph = bench::MustBuildWcPowerLaw(std::max<NodeId>(n, 500), 10, seed);

  bench::PrintHeader(
      "Batch serving: requests/sec with vs without context reuse",
      "WC power-law n=" + std::to_string(graph.num_nodes()) +
          "; TIM+/IMM mix, k in {10,25,50}, eps in {0.3,0.4}, x" +
          std::to_string(repeats) + "; results bit-identical by the "
          "per-index RNG contract");
  const std::vector<ImRequest> requests = BuildRequestMix(seed, repeats);
  std::printf("graph: n=%u m=%llu | %zu requests | %u threads\n\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()),
              requests.size(), threads);

  // ---- standalone: every request pays full cost ----------------------
  Timer timer;
  std::vector<SolverResult> standalone(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    std::unique_ptr<InfluenceSolver> solver;
    Status status = SolverRegistry::Global().Create(requests[i].algo, graph,
                                                    &solver);
    if (!status.ok()) std::exit(1);
    SolverOptions options = requests[i];
    options.num_threads = threads;
    status = solver->Run(options, &standalone[i]);
    if (!status.ok()) std::exit(1);
  }
  const double standalone_sec = timer.ElapsedSeconds();

  // ---- serving: shared GraphContext --------------------------------
  ServingOptions serving_options;
  serving_options.num_threads = threads;
  ServingEngine serving(serving_options);
  if (!serving.RegisterGraph("g", std::move(graph)).ok()) std::exit(1);
  timer.Reset();
  const std::vector<ImResponse> responses = serving.SolveBatch(requests);
  const double serving_sec = timer.ElapsedSeconds();

  uint64_t mismatches = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].status.ok() ||
        responses[i].result.seeds != standalone[i].seeds) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: %llu of %zu batch results diverged from "
                 "standalone runs\n",
                 static_cast<unsigned long long>(mismatches),
                 requests.size());
    std::exit(1);
  }

  const GraphContext* context = serving.Context("g");
  const double req = static_cast<double>(requests.size());
  const double speedup = standalone_sec / serving_sec;
  const double reuse_fraction =
      context->TotalSetsServed() == 0
          ? 0.0
          : static_cast<double>(context->TotalSetsReused()) /
                static_cast<double>(context->TotalSetsServed());

  std::printf("%-28s %10s %14s\n", "", "standalone", "serving");
  std::printf("%-28s %9.2fs %13.2fs\n", "wall-clock", standalone_sec,
              serving_sec);
  std::printf("%-28s %10.2f %14.2f\n", "requests/sec", req / standalone_sec,
              req / serving_sec);
  std::printf("\nspeedup: %.2fx | RR sets served %llu, sampled %llu "
              "(%.1f%% reused) | phase-cache hits %llu | shared %.1f MB | "
              "seeds identical across all %zu requests\n",
              speedup,
              static_cast<unsigned long long>(context->TotalSetsServed()),
              static_cast<unsigned long long>(context->TotalSetsSampled()),
              100.0 * reuse_fraction,
              static_cast<unsigned long long>(context->phase_cache().hits()),
              static_cast<double>(context->SharedMemoryBytes()) /
                  (1024.0 * 1024.0),
              requests.size());

  bench::RecordMetric("standalone.seconds", standalone_sec);
  bench::RecordMetric("serving.seconds", serving_sec);
  bench::RecordMetric("standalone.requests_per_sec", req / standalone_sec);
  bench::RecordMetric("serving.requests_per_sec", req / serving_sec);
  bench::RecordMetric("serving.speedup", speedup);
  bench::RecordMetric("serving.rr_sets_served",
                      static_cast<double>(context->TotalSetsServed()));
  bench::RecordMetric("serving.rr_sets_sampled",
                      static_cast<double>(context->TotalSetsSampled()));
  bench::RecordMetric("serving.reuse_fraction", reuse_fraction);
  bench::RecordMetric("serving.phase_cache_hits",
                      static_cast<double>(context->phase_cache().hits()));
  bench::RecordMetric("serving.shared_mb",
                      static_cast<double>(context->SharedMemoryBytes()) /
                          (1024.0 * 1024.0));
  bench::RecordMetric("results.identical", 1.0);
}

}  // namespace
}  // namespace timpp

int main(int argc, char** argv) {
  timpp::Run(argc, argv);
  return 0;
}
