// Borgs et al.'s Reverse Influence Sampling (SODA'14; §2.3 of the paper).
//
// RIS keeps generating random RR sets until the *total traversal cost*
// (nodes+edges examined) reaches a threshold τ = Θ(k·ℓ·(m+n)·log n / ε³),
// then greedily covers. The cost-threshold stopping rule makes the sampled
// sets correlated — the weakness (§2.3, footnote 3) that motivates TIM's
// fixed-count design — and the ε⁻³ makes the practical constant enormous.
#ifndef TIMPP_BASELINES_RIS_H_
#define TIMPP_BASELINES_RIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/run_options.h"
#include "engine/solve_context.h"
#include "graph/graph.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Configuration of a RIS run. The RunOptions base holds the run knobs
/// (engine/run_options.h), with two RIS specifics: max_hops must be 0 (τ
/// is Borgs et al.'s bound for the unbounded spread), and past
/// memory_budget_bytes the collection freezes as a stream-prefix cache
/// while the cost loop keeps consuming (and discarding, or spilling) the
/// stream until τ, so θ and the seeds stay those of an unbudgeted run.
/// Selection then goes through SelectNodes (core/node_selector.h), the
/// budget policy TIM and IMM share: it also cuts a collection whose last
/// cost batch crossed the budget, and streams when the index would not
/// fit.
/// edges_examined — and hence the τ stopping rule — counts *decided* arcs
/// in both sampler modes, so the stop point is mode-comparable.
struct RisOptions : RunOptions {
  RisOptions() { seed = 0xb0265ULL; }

  double epsilon = 0.1;
  double ell = 1.0;
  /// Multiplier on the theoretical τ. Borgs et al. only pin τ up to a
  /// constant; 1.0 is the faithful setting, and benches may lower it to
  /// keep RIS runnable (trading away the worst-case guarantee, exactly the
  /// trade-off §7.2 describes).
  double tau_scale = 1.0;
  /// Hard cap on generated RR sets (0 = none) as an out-of-memory guard.
  uint64_t max_rr_sets = 0;
};

/// Instrumentation of a RIS run. The RrRunStats base holds the budget
/// and spill counters (rr_sets_retained == rr_sets_generated budget-off).
struct RisStats : RrRunStats {
  double tau = 0.0;               // the cost threshold used
  uint64_t rr_sets_generated = 0;  // θ: sets the cost rule admitted
  uint64_t cost_examined = 0;     // nodes+edges examined while sampling
  bool hit_set_cap = false;       // stopped by max_rr_sets instead of τ
  double covered_fraction = 0.0;  // F_R(seeds)
  double seconds_total = 0.0;
};

/// Runs RIS: samples until the cost threshold, then greedy max coverage.
Status RunRis(const Graph& graph, const RisOptions& options, int k,
              std::vector<NodeId>* seeds, RisStats* stats);

/// Context-aware variant: `context.source` (optional) supplies an
/// externally owned sample stream — the cost loop then consumes (and
/// reuses) the shared collection's prefix instead of sampling fresh, with
/// bit-identical seeds. The memory budget requires a standalone run, as
/// for every RR solver (ValidateRrRun): the budget contract is
/// per-request resident bytes, meaningless against a shared collection,
/// so a budget with a context source returns InvalidArgument.
Status RunRis(const Graph& graph, const RisOptions& options, int k,
              const SolveContext& context, std::vector<NodeId>* seeds,
              RisStats* stats);

}  // namespace timpp

#endif  // TIMPP_BASELINES_RIS_H_
