// TIM and TIM+ — the paper's two-phase influence maximization algorithms.
//
//   TIM  (§3.3): Algorithm 2 → θ = λ/KPT*          → Algorithm 1.
//   TIM+ (§4.1): Algorithm 2 → Algorithm 3 → θ = λ/KPT+ → Algorithm 1.
//
// Both return a (1-1/e-ε)-approximate seed set with probability at least
// 1 - n^-ℓ (after the ℓ adjustment) in O((k+ℓ)(m+n)·log n / ε²) expected
// time under the triggering model — IC and LT included as special cases.
#ifndef TIMPP_CORE_TIM_H_
#define TIMPP_CORE_TIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/run_options.h"
#include "engine/solve_context.h"
#include "graph/graph.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Configuration of a TIM/TIM+ run. The RunOptions base holds the run
/// knobs (engine/run_options.h): all three phases draw from one
/// SamplingEngine built from it, so results are bit-reproducible in the
/// stream key alone — independent of num_threads and spill dir.
/// A memory budget caps the node-selection collection only; KPT
/// estimation and refinement keep small collections.
struct TimOptions : RunOptions {
  /// Seed-set size k ∈ [1, n].
  int k = 50;
  /// Approximation slack ε ∈ (0, 1]; the guarantee is (1-1/e-ε).
  double epsilon = 0.1;
  /// Confidence exponent: failure probability at most n^-ℓ. Must be > 0.
  double ell = 1.0;
  /// true → TIM+ (with Algorithm 3 refinement, at the paper's recommended
  /// ε′ = 5·cbrt(ℓ·ε²/(k+ℓ))); false → plain TIM.
  bool use_refinement = true;
  /// Scale ℓ so the final success probability is 1 - n^-ℓ despite the
  /// 2·n^-ℓ (TIM) / 3·n^-ℓ (TIM+) union bounds (§3.3, §4.1).
  bool adjust_ell = true;
};

/// Everything measured during a run — feeds Figures 4, 5, and 12. The
/// RrRunStats base holds the budget and spill counters.
struct TimStats : RrRunStats {
  double lambda = 0.0;        // Equation 4
  double kpt_star = 0.0;      // Algorithm 2 output
  double kpt_plus = 0.0;      // Algorithm 3 output (TIM+; else = kpt_star)
  double eps_prime = 0.0;     // ε′ actually used (0 for plain TIM)
  double ell_used = 0.0;      // ℓ after adjustment
  uint64_t theta = 0;         // RR sets sampled by Algorithm 1
  uint64_t theta_prime = 0;   // RR sets sampled by Algorithm 3 (TIM+)
  uint64_t rr_sets_kpt = 0;   // RR sets sampled by Algorithm 2

  double seconds_kpt_estimation = 0.0;  // Algorithm 2
  double seconds_kpt_refinement = 0.0;  // Algorithm 3
  double seconds_node_selection = 0.0;  // Algorithm 1
  double seconds_total = 0.0;

  /// n·F_R(S) — the unbiased spread estimate of the returned seeds on the
  /// node-selection RR sets (Corollary 1).
  double estimated_spread = 0.0;
  /// Peak RR-collection bytes during node selection (Figure 12).
  size_t rr_memory_bytes = 0;
  /// Filled bytes of retained raw set storage (DataBytes before any index
  /// build — what a memory budget caps; comparable between budgeted and
  /// budget-off runs, and the basis of the Figure 12 budgeted series).
  size_t rr_data_bytes = 0;
  /// Total edges examined across all three phases (budget-induced
  /// regeneration included).
  uint64_t edges_examined = 0;
  /// Algorithms 2(+3) were restored from a SolveContext's PhaseCache
  /// instead of recomputed (serving layer; always false standalone).
  bool kpt_cache_hit = false;
};

/// Result of a run.
struct TimResult {
  std::vector<NodeId> seeds;
  TimStats stats;
};

/// Influence-maximization solver bound to one graph.
///
///   TimSolver solver(graph);
///   TimOptions options;
///   options.k = 50;
///   TimResult result;
///   Status s = solver.Run(options, &result);
class TimSolver {
 public:
  explicit TimSolver(const Graph& graph) : graph_(graph) {}

  /// Validates `options` and executes TIM or TIM+.
  Status Run(const TimOptions& options, TimResult* result) const;

  /// Context-aware variant: when `context.source` is set, the run consumes
  /// that externally owned sample stream from its current cursor (position
  /// 0 in serving use) instead of constructing a private engine, and when
  /// `context.phase_cache` is set, Algorithms 2–3 are restored from /
  /// stored into it. Results are bit-identical to the standalone Run for
  /// matching options — reuse only changes how much fresh sampling the
  /// run performs. The source's stream must be the options' StreamKey and
  /// its graph must be this solver's graph. A memory budget requires a
  /// standalone run: with a context source the run returns
  /// InvalidArgument before sampling.
  Status Run(const TimOptions& options, const SolveContext& context,
             TimResult* result) const;

 private:
  const Graph& graph_;
};

}  // namespace timpp

#endif  // TIMPP_CORE_TIM_H_
