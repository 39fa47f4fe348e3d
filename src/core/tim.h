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

#include "diffusion/triggering.h"
#include "engine/sample_backend.h"
#include "engine/solve_context.h"
#include "graph/graph.h"
#include "rrset/rr_spill.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Configuration of a TIM/TIM+ run.
struct TimOptions {
  /// Seed-set size k ∈ [1, n].
  int k = 50;
  /// Approximation slack ε ∈ (0, 1]; the guarantee is (1-1/e-ε).
  double epsilon = 0.1;
  /// Confidence exponent: failure probability at most n^-ℓ. Must be > 0.
  double ell = 1.0;
  /// Diffusion model; kTriggering requires custom_model.
  DiffusionModel model = DiffusionModel::kIC;
  /// Borrowed; must outlive the run. Used when model == kTriggering.
  const TriggeringModel* custom_model = nullptr;
  /// true → TIM+ (with Algorithm 3 refinement); false → plain TIM.
  bool use_refinement = true;
  /// Intermediate accuracy ε′ for Algorithm 3; <= 0 selects the paper's
  /// recommended 5·cbrt(ℓ·ε²/(k+ℓ)).
  double eps_prime = 0.0;
  /// Scale ℓ so the final success probability is 1 - n^-ℓ despite the
  /// 2·n^-ℓ (TIM) / 3·n^-ℓ (TIM+) union bounds (§3.3, §4.1).
  bool adjust_ell = true;
  /// Bound on propagation rounds (0 = unlimited): optimizes the
  /// time-critical spread "nodes activated within max_hops rounds"
  /// instead of the eventual spread (Chen et al., AAAI'12; the paper's
  /// related-work setting [4]). All guarantees carry over because depth-d
  /// RR sets satisfy the depth-d analog of Lemma 2.
  uint32_t max_hops = 0;
  /// RR-traversal strategy (geometric skip sampling vs per-arc coins; see
  /// SamplerMode). kAuto picks skip when the graph's constant-probability
  /// in-arc runs are long (weighted cascade, uniform). Seed sets differ
  /// bit-wise between modes but are statistically indistinguishable.
  SamplerMode sampler_mode = SamplerMode::kAuto;
  /// Sampling worker threads shared by all three phases (Algorithms 2, 3
  /// and 1 all consume i.i.d. RR sets from one SamplingEngine, so every
  /// phase parallelizes embarrassingly). Under the engine's deterministic
  /// merge contract results are bit-reproducible in `seed` alone —
  /// independent of num_threads. 1 = fully sequential.
  unsigned num_threads = 1;
  /// Pin sampling worker threads to CPUs (placement only; results are
  /// invariant to it).
  bool pin_threads = false;
  /// Soft cap (bytes; 0 = unlimited) on the node-selection RR collection's
  /// resident DataBytes — the §7.2 memory knob. Past the cap, Algorithm 1
  /// degrades to streaming sample-and-discard selection (retained-prefix
  /// cache plus per-round regeneration; see coverage/streaming_cover.h)
  /// instead of exhausting memory: seeds stay bit-identical to a
  /// budget-off run, at up to k extra sampling passes. KPT estimation and
  /// refinement keep O(small) collections and are not budgeted.
  size_t memory_budget_bytes = 0;
  /// Parent directory for disk-spilled RR prefixes (the out-of-core tier;
  /// empty = no spill). Only consulted when memory_budget_bytes trips:
  /// the non-resident suffix is then written once as sequential shard
  /// chunks and replayed from disk each greedy round instead of being
  /// regenerated by graph traversal — same seeds either way, with
  /// regeneration_passes == 0 while the store stays healthy. Chunk files
  /// live in a unique per-run subdirectory, deleted when the run ends.
  std::string spill_dir;
  /// Master RNG seed; every run with equal options is bit-reproducible.
  uint64_t seed = 0x7145ULL;
  /// Where sample production runs: in-process threads (default) or
  /// coordinated worker subprocesses (engine/sample_backend.h). Seeds,
  /// θ and all stats are bit-identical across backends; only throughput
  /// and failure modes (a worker can die) differ.
  SampleBackendSpec sample_backend;
};

/// Everything measured during a run — feeds Figures 4, 5, and 12.
struct TimStats {
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
  /// memory_budget_bytes forced streaming sample-and-discard selection.
  bool hit_memory_budget = false;
  /// RR sets kept resident during node selection (== theta budget-off).
  uint64_t rr_sets_retained = 0;
  /// Greedy rounds that re-generated discarded RR sets (0 budget-off,
  /// and 0 under a healthy spill store — disk replay displaces them).
  uint64_t regeneration_passes = 0;
  /// Spill-tier activity (all zero without a spill_dir): RR sets written
  /// to disk, sets replayed from disk during greedy rounds, and chunk
  /// bytes written.
  uint64_t rr_sets_spilled = 0;
  uint64_t sets_spill_read = 0;
  uint64_t spill_bytes_written = 0;
  /// Full spill-store counter snapshot (prefetch issued/hit/wasted, sync
  /// fallbacks, SLRU hot/probation hit split). Zero without a store.
  RRSpillStats spill;
  /// Algorithms 2(+3) were restored from a SolveContext's PhaseCache
  /// instead of recomputed (serving layer; always false standalone).
  bool kpt_cache_hit = false;
  /// Backend fault-tolerance activity during this run (retries, respawns,
  /// fallbacks — see BackendStats). All zero for local backends and
  /// healthy distributed runs. Under a shared serving stream the delta
  /// can include recovery work triggered by concurrent requests.
  BackendStats backend;
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
  /// run performs. The source's sampling configuration must match the
  /// options (model, sampler mode, seed, max_hops) and its graph must be
  /// this solver's graph.
  Status Run(const TimOptions& options, const SolveContext& context,
             TimResult* result) const;

 private:
  const Graph& graph_;
};

/// Option validation shared with baselines that take (k, ε, ℓ).
Status ValidateImParameters(const Graph& graph, int k, double epsilon,
                            double ell);

}  // namespace timpp

#endif  // TIMPP_CORE_TIM_H_
