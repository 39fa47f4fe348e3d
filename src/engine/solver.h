// InfluenceSolver — the uniform run interface over every influence
// maximization algorithm in timpp.
//
// A solver binds a graph at construction (via SolverRegistry::Create) and
// executes with one options struct shared by all algorithms: the shared
// run knobs (RunOptions: model, seed, threads, budget, spill, ...), the
// common parameters (k, ε, ℓ), plus a handful of family-specific knobs
// that solvers outside the family ignore. Stats come
// back as a uniform name → value list so callers (CLI, benches, serving
// layers) can report any algorithm without branching on its concrete
// result type.
#ifndef TIMPP_ENGINE_SOLVER_H_
#define TIMPP_ENGINE_SOLVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/run_options.h"
#include "engine/solve_context.h"
#include "graph/graph.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// One options struct for every registered algorithm. Solvers read the
/// fields they understand and ignore the rest; defaults are the values the
/// paper (or the quoted original work) recommends. The RunOptions base
/// carries the RR-set solvers' run knobs (engine/run_options.h); solvers
/// without RR sets read at most model, custom_model, sampler_mode and
/// seed from it.
struct SolverOptions : RunOptions {
  /// Seed-set size k ∈ [1, n].
  int k = 50;
  /// Approximation slack ε (RIS-family algorithms).
  double epsilon = 0.1;
  /// Confidence exponent: failure probability at most n^-ℓ.
  double ell = 1.0;

  // ---- family-specific knobs ----------------------------------------
  /// Monte-Carlo cascades per spread estimate (greedy/CELF family).
  uint64_t mc_samples = 10000;
  /// Multiplier on RIS's theoretical cost threshold τ.
  double ris_tau_scale = 1.0;
  /// Cap on RIS's generated RR sets (0 = none).
  uint64_t ris_max_sets = 0;
  /// IRIE rank-propagation strength α.
  double irie_alpha = 0.7;
  /// SIMPATH path-pruning threshold η.
  double simpath_eta = 1e-3;
  /// PageRank damping and power iterations (pagerank heuristic).
  double pagerank_damping = 0.85;
  int pagerank_iterations = 50;
  /// DegreeDiscount's uniform IC probability p (<= 0: graph mean).
  double degree_discount_p = 0.0;
};

/// Uniform result: the seed set plus flat stats.
struct SolverResult {
  std::vector<NodeId> seeds;
  /// Wall-clock of the whole run.
  double seconds_total = 0.0;
  /// The solver's own spread estimate of `seeds` (n·F_R(S) for RR-set
  /// algorithms, the final MC estimate for greedy); 0 when the algorithm
  /// does not produce one (pure heuristics).
  double estimated_spread = 0.0;
  /// Algorithm-specific metrics by name (e.g. "theta", "kpt_star", "lb"),
  /// in emission order.
  std::vector<std::pair<std::string, double>> metrics;

  /// Convenience lookup; returns `def` when absent.
  double Metric(const std::string& name, double def = 0.0) const {
    for (const auto& [key, value] : metrics) {
      if (key == name) return value;
    }
    return def;
  }
};

/// Abstract influence maximization solver bound to one graph.
class InfluenceSolver {
 public:
  virtual ~InfluenceSolver() = default;

  /// Registry name this solver was created under ("tim+", "imm", ...).
  virtual std::string name() const = 0;

  /// Validates `options` and runs the algorithm. `*result` is only
  /// meaningful when the returned status is OK.
  virtual Status Run(const SolverOptions& options, SolverResult* result) = 0;

  /// Context-aware entry point for serving layers: `context` may carry an
  /// externally owned sample stream and memoized phase results (see
  /// engine/solve_context.h), which RR-set solvers consume for
  /// cross-request reuse with bit-identical output. The default
  /// implementation ignores the context — algorithms without RR-set
  /// phases behave identically either way.
  virtual Status RunWithContext(const SolverOptions& options,
                                const SolveContext& context,
                                SolverResult* result) {
    (void)context;
    return Run(options, result);
  }

  /// Whether RunWithContext actually exploits a SolveContext (the RR-set
  /// family). Serving layers use this to skip building shared stream
  /// state for solvers that would ignore it.
  virtual bool UsesSolveContext() const { return false; }
};

}  // namespace timpp

#endif  // TIMPP_ENGINE_SOLVER_H_
