// Traced replay of one solve.
//
// The replay re-executes a TIM+ or IMM run by calling each layer's public
// entry point in the solver's exact order — EstimateKpt → RefineKpt →
// SampleInto → BuildIndex → GreedyMaxCover for TIM+ (with the budgeted
// MaxPrefixUnderDataBudget → SpillRange → SpillFillTo →
// StreamingGreedyMaxCover path when a memory budget trips), and each LB
// iteration's growth → BuildIndex → GreedyMaxCover followed by the
// selection phase for IMM — with every call wrapped in a Tracer span. The
// library itself is not instrumented: the spans are stamped from here.
// Because RR set i is a pure function of (seed, i), a faithful replay
// returns the solver's seeds, θ and bound bit for bit; main.cc refuses to
// report metrics otherwise.
#ifndef TIMPP_E2EBENCH_REPLAY_H_
#define TIMPP_E2EBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "rrset/rr_spill.h"
#include "span_trace.h"
#include "util/status.h"
#include "workloads.h"

namespace timpp::e2e {

struct ReplayResult {
  std::vector<NodeId> seeds;
  uint64_t theta = 0;
  double lower_bound = 0.0;  // KPT+ or LB
  int lb_iterations = 0;
  uint64_t kpt_sets = 0;
  /// Edges examined by every phase, the spill fill and streaming
  /// regeneration included (TimStats::edges_examined's definition).
  uint64_t edges_examined = 0;
  /// Sets appended by the replay's own SampleInto calls.
  uint64_t sampled_sets = 0;
  double estimated_spread = 0.0;
  size_t rr_data_bytes = 0;
  size_t rr_capacity_bytes = 0;
  uint64_t regeneration_passes = 0;
  RRSpillStats spill;
  std::string io_backend = "none";
  /// IMM only: λ′ and λ*, recomputed by the replay.
  double lambda_prime = 0.0;
  double lambda_star = 0.0;
  /// Wall time of the replayed solve (the fill regeneration excluded).
  double total_s = 0.0;
};

/// Replays the workload's solve at `threads` sampling threads. With
/// `measure_fill`, the index ranges the replay sampled are regenerated
/// afterwards through SamplingEngine::VisitSamples with a no-op visitor,
/// under "engine.fill" spans: the fill cost without the merge into the
/// output collection.
Status ReplaySolve(const WorkloadSpec& spec, const Seeds& seeds,
                   const Graph& graph, unsigned threads,
                   const std::string& spill_dir, bool measure_fill,
                   Tracer* tracer, ReplayResult* out);

/// Empty when the replay reproduced the solver exactly; otherwise names
/// the first field that differs.
std::string CompareReplay(const WorkloadSpec& spec, const SolveOutcome& solver,
                          const ReplayResult& replay);

}  // namespace timpp::e2e

#endif  // TIMPP_E2EBENCH_REPLAY_H_
