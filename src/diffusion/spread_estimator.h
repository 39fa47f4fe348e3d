// Monte-Carlo estimation of the expected spread E[I(S)] (§2.2): run r
// independent cascades and average the activation counts. This is the
// estimator inside Kempe et al.'s Greedy and the measurement instrument for
// the expected-spread figures (5, 9, 11). The exact value is #P-hard.
#ifndef TIMPP_DIFFUSION_SPREAD_ESTIMATOR_H_
#define TIMPP_DIFFUSION_SPREAD_ESTIMATOR_H_

#include <cstdint>
#include <span>

#include "diffusion/triggering.h"
#include "graph/graph.h"
#include "util/types.h"

namespace timpp {

/// Configuration for SpreadEstimator.
struct SpreadEstimatorOptions {
  /// Number of Monte-Carlo cascades per estimate (the paper's r; Kempe et
  /// al. suggest 10000, the figures use 1e5, Lemma 10 gives the bound).
  uint64_t num_samples = 10000;
  /// Worker threads; each runs num_samples/num_threads cascades on its own
  /// forked RNG stream, so results are deterministic in (seed, num_threads).
  unsigned num_threads = 1;
  /// Diffusion model; kTriggering requires `custom_model`.
  DiffusionModel model = DiffusionModel::kIC;
  /// Borrowed; must outlive the estimator. Used when model == kTriggering.
  const TriggeringModel* custom_model = nullptr;
  /// Bound on propagation rounds (0 = unlimited) — time-critical variant.
  uint32_t max_hops = 0;
  /// Arc-decision strategy for the forward IC cascades (see SamplerMode).
  /// LT and triggering simulation never flip per-arc coins and ignore it.
  SamplerMode sampler_mode = SamplerMode::kAuto;
  /// Optional per-node weights (borrowed; size n). When set, Estimate()
  /// returns the expected *weighted* spread Σ w(v)·P[v activated] instead
  /// of the expected activation count.
  const std::vector<double>* node_weights = nullptr;
};

/// Reusable spread estimator bound to one graph.
class SpreadEstimator {
 public:
  SpreadEstimator(const Graph& graph, const SpreadEstimatorOptions& options)
      : graph_(graph), options_(options) {}

  /// Mean activated-node count over options.num_samples cascades seeded
  /// from `seeds`, using `seed` for randomness. Deterministic.
  double Estimate(std::span<const NodeId> seeds, uint64_t seed) const;

 private:
  double EstimateSingleThread(std::span<const NodeId> seeds, uint64_t seed,
                              uint64_t samples) const;

  const Graph& graph_;
  SpreadEstimatorOptions options_;
};

/// Configuration for VerifySpread; the defaults are the quality-check
/// sweet spot (10^4 cascades, single-threaded determinism).
struct VerifySpreadOptions {
  uint64_t num_samples = 10000;
  unsigned num_threads = 1;
  DiffusionModel model = DiffusionModel::kIC;
  /// Borrowed; required when model == kTriggering.
  const TriggeringModel* custom_model = nullptr;
  uint32_t max_hops = 0;
  uint64_t seed = 0x5eedc4e1ULL;
  /// Optional per-node weights (borrowed; size n) — weighted spread.
  const std::vector<double>* node_weights = nullptr;
};

/// Scores a seed set's expected spread with Monte-Carlo cascades — the
/// spread-verification instrument for tests, benches and the end-to-end
/// benchmark. Equivalent to SpreadEstimator::Estimate with the same
/// samples, threads and seed: unbiased, and deterministic in
/// (options.seed, options.num_threads).
double VerifySpread(const Graph& graph, std::span<const NodeId> seeds,
                    const VerifySpreadOptions& options = {});

}  // namespace timpp

#endif  // TIMPP_DIFFUSION_SPREAD_ESTIMATOR_H_
