// serve-mix: a closed-loop request mix against one ServingEngine.
//
// `threads` client threads each Submit(request).get() in turn — the shape
// of the repo's only serving caller, `im_cli --batch --concurrency=N`,
// which waits for every reply — against as many request workers with one
// sampling thread each. The mix is a fixed pattern of TIM+ or IMM,
// k ∈ {10, 25, 50}, ε ∈ {0.3, 0.4}; 75% of requests reuse one of two fixed
// solver seeds (reads of the shared RR prefix and the phase cache), 25% use
// a fresh seed (writes: a new stream sampled into the cache). The workload
// seed draws those solver seeds.
#ifndef TIMPP_E2EBENCH_SERVE_MIX_H_
#define TIMPP_E2EBENCH_SERVE_MIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"
#include "workloads.h"

namespace timpp::e2e {

struct ServeMixResult {
  /// OpenGraphImage + RegisterGraph.
  double setup_s = 0.0;
  /// First Submit to last reply.
  double wall_s = 0.0;
  /// Submit→get latency per request, in mix order, and whether the
  /// request reused a fixed seed (a read) or brought a fresh one (a write).
  std::vector<double> latency_ms;
  std::vector<bool> is_read;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK statuses, Unavailable sheds included
  uint64_t phase_hits = 0;
  /// GraphContext accounting after the mix.
  uint64_t sets_sampled = 0;
  uint64_t sets_served = 0;
  uint64_t sets_reused = 0;
  size_t cache_bytes = 0;
  /// The canonical request (the spec's algo/k/ε under the first fixed
  /// seed), served after the mix; its seeds are what gets verified.
  SolveOutcome canonical;
  /// The served graph (a cheap shared-storage copy).
  Graph graph;
  /// Empty when every sampled response equalled a standalone
  /// SolverRegistry run with the same options.
  std::string gate_error;
};

/// Runs the mix once. `tamper_gate` perturbs the standalone reference runs
/// (a different solver seed) so the self test can watch the gate fire.
Status RunServeMix(const WorkloadSpec& spec, const Seeds& seeds,
                   const std::string& dir, unsigned threads, bool tamper_gate,
                   ServeMixResult* out);

}  // namespace timpp::e2e

#endif  // TIMPP_E2EBENCH_SERVE_MIX_H_
