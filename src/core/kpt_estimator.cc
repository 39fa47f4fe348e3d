#include "core/kpt_estimator.h"

#include <cmath>

#include "core/parameters.h"
#include "graph/graph.h"

namespace timpp {

KptEstimate EstimateKpt(SampleSource& source, int k, double ell) {
  const Graph& graph = source.graph();
  const uint64_t n = graph.num_nodes();
  const double m = static_cast<double>(graph.num_edges());

  KptEstimate result;
  result.last_iteration_rr = std::make_unique<RRCollection>(graph.num_nodes());

  const int max_iterations = KptMaxIterations(n);

  for (int i = 1; i <= max_iterations; ++i) {
    const uint64_t ci = static_cast<uint64_t>(
        std::ceil(ComputeKptIterationBudget(n, ell, i)));

    // Fresh sets each iteration; only the final iteration's R′ is retained
    // (Algorithm 3 reuses exactly those sets).
    result.last_iteration_rr->Clear();
    const SampleBatch batch =
        source.Fetch(result.last_iteration_rr.get(), ci);
    result.edges_examined += batch.edges_examined;
    result.rr_sets_generated += batch.sets_added;

    // κ(R) = 1 - (1 - w(R)/m)^k  (Equation 8), read from the stored
    // widths. An edgeless graph has m = 0 and w(R) = 0; κ = 0 then,
    // matching KPT = 1 ≈ n·E[κ]+seeds.
    double sum = 0.0;
    for (size_t id = 0; id < result.last_iteration_rr->num_sets(); ++id) {
      const double width = static_cast<double>(
          result.last_iteration_rr->Width(static_cast<RRSetId>(id)));
      const double ratio = m > 0.0 ? width / m : 0.0;
      sum += 1.0 - std::pow(1.0 - ratio, k);
    }

    if (sum / static_cast<double>(ci) > 1.0 / std::pow(2.0, i)) {
      result.kpt_star =
          static_cast<double>(n) * sum / (2.0 * static_cast<double>(ci));
      result.terminated_iteration = i;
      result.last_iteration_rr->BuildIndex(source.pool());
      return result;
    }
  }

  // Fell through every iteration: the smallest possible KPT (a seed always
  // activates itself).
  result.kpt_star = 1.0;
  result.terminated_iteration = 0;
  result.last_iteration_rr->BuildIndex(source.pool());
  return result;
}

}  // namespace timpp
