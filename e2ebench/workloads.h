// The benchmark's four workloads: their inputs (generated from the one
// workload seed), the setup path that turns those inputs into a Graph, the
// solve, and the spread verification. The untraced repeats, the traced
// replay and the serving mix all go through these helpers, so every mode
// measures the same configuration.
#ifndef TIMPP_E2EBENCH_WORKLOADS_H_
#define TIMPP_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "diffusion/spread_estimator.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp::e2e {

/// kFull is the measured size; kToy shrinks every workload so the self
/// test runs each in seconds.
enum class Scale { kFull, kToy };

struct WorkloadSpec {
  std::string name;
  /// Directed scale-free graph (`degree` = mean out-degree) instead of an
  /// undirected Barabási–Albert graph (`degree` = attach count).
  bool scale_free = false;
  NodeId n = 0;
  double degree = 0.0;
  /// kIC with weighted-cascade probabilities, or kLT with random
  /// in-weights.
  DiffusionModel model = DiffusionModel::kIC;
  /// Setup parses the text edge list and applies weights at load, as
  /// im_cli does; otherwise it opens the TIMPPIMG image.
  bool parse_text = false;
  /// "tim+" or "imm". For serve-mix: the canonical request whose seeds
  /// get verified after the mix.
  std::string algo;
  int k = 50;
  double epsilon = 0.1;
  /// Node-selection memory budget in bytes (0 = none).
  size_t memory_budget_bytes = 0;
  /// VerifySpread cascades.
  uint64_t mc_samples = 10000;
  /// serve-mix only: closed-loop requests per repeat, and the byte cap on
  /// the shared RR caches (LRU eviction of whole streams).
  unsigned requests = 0;
  size_t cache_budget_bytes = 0;

  bool serving() const { return requests != 0; }
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name, Scale scale);

/// The graph's seeds (fixed per workload) and the run's random choices
/// (derived from the workload seed).
struct Seeds {
  uint64_t graph = 0;
  uint64_t weights = 0;
  uint64_t solver = 0;
  uint64_t verify = 0;
  uint64_t mix = 0;
};
Seeds DeriveSeeds(uint64_t workload_seed);

/// An independent seed for sub-choice `tag` of `seed` (splitmix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

std::string TextPath(const std::string& dir);
std::string ImagePath(const std::string& dir);

/// Writes the workload's inputs into `dir`: a SNAP-style text edge list
/// and a TIMPPIMG image of the same graph (each setup path reads one; the
/// traced run times both).
Status GenerateInputs(const WorkloadSpec& spec, const Seeds& seeds,
                      const std::string& dir);

/// The text setup path in its two steps (the traced run times each):
/// ReadEdgeList, then the weight pass (text workloads carry bare arcs and
/// get their weights at load, as im_cli applies them) and Build.
Status ParseText(const std::string& dir, GraphBuilder* builder);
Status BuildFromText(const WorkloadSpec& spec, const Seeds& seeds,
                     GraphBuilder* builder, Graph* graph);

/// The workload's setup path: the text parse for parse_text workloads,
/// OpenGraphImage otherwise. `*seconds` is its wall time.
Status LoadGraph(const WorkloadSpec& spec, const Seeds& seeds,
                 const std::string& dir, Graph* graph, double* seconds);

/// What one solver run returned, flattened across TIM+ and IMM.
struct SolveOutcome {
  std::vector<NodeId> seeds;
  double seconds = 0.0;
  double estimated_spread = 0.0;  // the solver's own n·F_R(S)
  uint64_t theta = 0;
  /// TIM+'s KPT+ or IMM's LB — the bound θ was derived from.
  double lower_bound = 0.0;
  /// Iterations of the lower-bound loop: Algorithm 2's doubling loop for
  /// TIM+ (the iteration it stopped in), IMM's LB search.
  int lb_iterations = 0;
  /// Sets sampled before node selection (Algorithms 2+3, or IMM's LB
  /// search).
  uint64_t kpt_sets = 0;
  /// TIM+ only (ImmStats has no counter): edges examined by all phases.
  uint64_t edges_examined = 0;
  uint64_t regeneration_passes = 0;
  bool hit_memory_budget = false;
  /// IMM only: the sampling- and selection-phase constants λ′ and λ*.
  double lambda_prime = 0.0;
  double lambda_star = 0.0;
};

/// Runs the workload's solver. `budgeted` applies the spec's memory budget
/// (with `spill_dir` as the spill tier); false runs the same solve
/// unbudgeted.
Status Solve(const WorkloadSpec& spec, const Seeds& seeds, const Graph& graph,
             unsigned threads, bool budgeted, const std::string& spill_dir,
             SolveOutcome* out);

VerifySpreadOptions VerifyOptions(const WorkloadSpec& spec, unsigned threads,
                                  uint64_t seed);

/// Gate: the solver's n·F_R(S) and the Monte-Carlo `verified` spread must
/// agree within four standard errors. The RR estimate's SE is
/// n·sqrt(F(1-F)/θ); the MC estimate's SE is bounded without a variance
/// estimate by Bhatia–Davis, since one cascade activates between k and n
/// nodes: Var <= (n - μ)(μ - k). Returns false with `*why` on a mismatch.
bool SpreadAgrees(const WorkloadSpec& spec, NodeId n,
                  const SolveOutcome& solve, double verified,
                  std::string* why);

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

}  // namespace timpp::e2e

#endif  // TIMPP_E2EBENCH_WORKLOADS_H_
