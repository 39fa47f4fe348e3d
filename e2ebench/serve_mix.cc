#include "serve_mix.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/solver_registry.h"
#include "graph/graph_io.h"
#include "serving/serving_engine.h"
#include "util/rng.h"
#include "util/timer.h"

namespace timpp::e2e {

namespace {

constexpr char kGraphName[] = "g";

ImRequest MakeRequest(const WorkloadSpec& spec, const std::string& algo,
                      int k, double epsilon, uint64_t seed) {
  ImRequest request;
  request.graph = std::string(kGraphName);
  request.algo = algo;
  request.k = k;
  request.epsilon = epsilon;
  request.model = spec.model;
  request.seed = seed;
  return request;
}

// The standalone run a served response must equal: same solver, same
// options, no shared stream and no phase cache.
Status SolveStandalone(const Graph& graph, const ImRequest& request,
                       unsigned threads, SolverResult* result) {
  std::unique_ptr<InfluenceSolver> solver;
  TIMPP_RETURN_NOT_OK(
      SolverRegistry::Global().Create(request.algo, graph, &solver));
  SolverOptions options;
  options.k = request.k;
  options.epsilon = request.epsilon;
  options.model = request.model;
  options.seed = request.seed;
  options.num_threads = threads;
  return solver->Run(options, result);
}

}  // namespace

Status RunServeMix(const WorkloadSpec& spec, const Seeds& seeds,
                   const std::string& dir, unsigned threads, bool tamper_gate,
                   ServeMixResult* out) {
  ServingOptions options;
  options.num_threads = 1;
  options.submit_workers = threads;
  options.shared_cache_budget_bytes = spec.cache_budget_bytes;
  ServingEngine engine(options);
  Timer timer;
  Graph graph;
  TIMPP_RETURN_NOT_OK(OpenGraphImage(ImagePath(dir), &graph));
  TIMPP_RETURN_NOT_OK(engine.RegisterGraph(kGraphName, graph));
  out->setup_s = timer.ElapsedSeconds();
  out->graph = graph;

  const uint64_t fixed_seeds[2] = {seeds.solver, DeriveSeed(seeds.solver, 1)};
  const char* const algos[2] = {"tim+", "imm"};
  const int ks[3] = {10, 25, 50};
  const double epsilons[2] = {0.3, 0.4};
  const size_t n = spec.requests;
  // The request pattern is a fixed trace, as the graph is a fixed dataset:
  // every attribute takes each of its values in equal shares (a quarter of
  // the requests are writes), shuffled once by a constant. The workload
  // seed picks the solver seeds the pattern is filled with. A pattern drawn
  // from the seed moved p50 latency by 30% between seeds (which reads wait
  // on an in-flight phase computation depends on the order), and an i.i.d.
  // one varies its write share by ±12% at 200 requests.
  constexpr uint64_t kPatternSeed = 2014;
  Rng rng(kPatternSeed);
  const auto balanced = [&](size_t categories) {
    std::vector<size_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = i % categories;
    std::shuffle(v.begin(), v.end(), rng);
    return v;
  };
  const std::vector<size_t> algo = balanced(2), k = balanced(3),
                            epsilon = balanced(2), write = balanced(4),
                            fixed = balanced(2);
  std::vector<ImRequest> requests;
  requests.reserve(n);
  out->is_read.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    out->is_read[i] = write[i] != 0;
    const uint64_t seed = out->is_read[i] ? fixed_seeds[fixed[i]]
                                          : DeriveSeed(seeds.mix, 1000 + i);
    requests.push_back(
        MakeRequest(spec, algos[algo[i]], ks[k[i]], epsilons[epsilon[i]], seed));
  }

  std::vector<ImResponse> responses(n);
  out->latency_ms.assign(n, 0.0);
  std::atomic<size_t> next{0};
  timer.Reset();
  {
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < threads; ++c) {
      clients.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
          const auto start = std::chrono::steady_clock::now();
          responses[i] = engine.Submit(requests[i]).get();
          out->latency_ms[i] = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        }
      });
    }
  }
  out->wall_s = timer.ElapsedSeconds();

  out->attempted = n;
  for (const ImResponse& r : responses) {
    out->failed += !r.status.ok();
    out->phase_hits += r.phase_cache_hit;
  }
  GraphContext* context = engine.Context(kGraphName);
  out->sets_sampled = context->TotalSetsSampled();
  out->sets_served = context->TotalSetsServed();
  out->sets_reused = context->TotalSetsReused();
  out->cache_bytes = context->SharedMemoryBytes();

  // Gate: the first read and the first write of each algorithm must equal
  // a standalone run of the same request.
  bool checked[2][2] = {};
  for (size_t i = 0; i < n && out->gate_error.empty(); ++i) {
    const int a = requests[i].algo == "imm";
    if (checked[a][out->is_read[i]] || !responses[i].status.ok()) continue;
    checked[a][out->is_read[i]] = true;
    ImRequest reference = requests[i];
    if (tamper_gate) reference.seed = DeriveSeed(reference.seed, 2);
    SolverResult standalone;
    TIMPP_RETURN_NOT_OK(
        SolveStandalone(graph, reference, threads, &standalone));
    if (standalone.seeds != responses[i].result.seeds ||
        standalone.estimated_spread != responses[i].result.estimated_spread) {
      out->gate_error = "request " + std::to_string(i) + " (" +
                        requests[i].algo + ", k=" +
                        std::to_string(requests[i].k) +
                        ") differs from its standalone run";
    }
  }

  const ImResponse canonical = engine.Solve(
      MakeRequest(spec, spec.algo, spec.k, spec.epsilon, fixed_seeds[0]));
  TIMPP_RETURN_NOT_OK(canonical.status);
  out->canonical.seeds = canonical.result.seeds;
  out->canonical.estimated_spread = canonical.result.estimated_spread;
  out->canonical.theta =
      static_cast<uint64_t>(canonical.result.Metric("theta"));
  return Status::OK();
}

}  // namespace timpp::e2e
