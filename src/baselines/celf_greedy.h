// Kempe et al.'s Greedy (§2.2) and its lazy-forward accelerations:
// CELF (Leskovec et al., KDD'07) and CELF++ (Goyal et al., WWW'11).
//
// All three add, k times, the node with the largest estimated marginal gain
// in E[I(S)], each estimate averaging r Monte-Carlo cascades. They return
// identical seed sets in exact arithmetic; CELF exploits submodularity to
// skip re-evaluations, and CELF++ additionally caches each node's marginal
// gain w.r.t. (S ∪ {current best}) to avoid one more round of
// re-evaluations. Time complexity O(k·m·n·r) in the worst case — the
// baseline TIM beats by up to four orders of magnitude (§7.2).
#ifndef TIMPP_BASELINES_CELF_GREEDY_H_
#define TIMPP_BASELINES_CELF_GREEDY_H_

#include <cstdint>
#include <vector>

#include "diffusion/triggering.h"
#include "graph/graph.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Which variant of the Monte-Carlo greedy family to run.
enum class GreedyVariant {
  kPlain,      // re-evaluate every node every round (reference; tiny inputs)
  kCelf,       // lazy-forward queue
  kCelfPlusPlus,  // lazy-forward + look-ahead gain caching
};

/// Configuration of a greedy run.
struct CelfOptions {
  GreedyVariant variant = GreedyVariant::kCelfPlusPlus;
  /// Monte-Carlo cascades per spread estimate (the literature's r = 10000).
  uint64_t num_mc_samples = 10000;
  DiffusionModel model = DiffusionModel::kIC;
  /// Borrowed; required when model == kTriggering.
  const TriggeringModel* custom_model = nullptr;
  /// Arc-decision strategy of the forward IC cascades (see SamplerMode).
  SamplerMode sampler_mode = SamplerMode::kAuto;
  /// Cascade batching of every spread estimate: bitmap64 packs 64 IC
  /// cascades per traversal at an identical estimator distribution. Its
  /// speed depends on the graph — see SpreadEstimatorOptions::mc_batch
  /// and the README's "Monte-Carlo batching" table. Ignored for
  /// LT/triggering estimates.
  McBatchMode mc_batch = McBatchMode::kScalar;
  uint64_t seed = 0xce1fULL;
};

/// Instrumentation of a greedy run.
struct CelfStats {
  /// Spread estimates computed (each costs r cascades). Plain greedy does
  /// ~k·n of them; CELF/CELF++ far fewer after round one.
  uint64_t spread_evaluations = 0;
  double seconds_total = 0.0;
  /// Estimated E[I(S)] after each of the k insertions.
  std::vector<double> spread_after_round;
};

/// Runs the selected greedy variant. `stats` may be null.
Status RunCelfGreedy(const Graph& graph, const CelfOptions& options, int k,
                     std::vector<NodeId>* seeds, CelfStats* stats);

}  // namespace timpp

#endif  // TIMPP_BASELINES_CELF_GREEDY_H_
