// IRIE (Jung, Heo & Chen, ICDM'12) — the state-of-the-art IC heuristic the
// paper compares TIM+ against in Figures 8-9.
//
// IRIE combines Influence Ranking (IR) — a PageRank-like linear system
//   rank(u) = 1 + α · Σ_{(u,v) ∈ E} p(u,v) · rank(v)
// solved by fixed-point iteration — with Influence Estimation (IE): after
// each seed is chosen, every node's rank is damped by (1 - AP(u|S)), its
// probability of already being activated by the current seeds, so nodes
// whose influence overlaps the chosen seeds stop looking attractive.
// No approximation guarantee (it is a heuristic), but fast: each round is
// O(iterations·m) plus the AP estimation.
#ifndef TIMPP_BASELINES_IRIE_H_
#define TIMPP_BASELINES_IRIE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Configuration of an IRIE run.
struct IrieOptions {
  /// Rank propagation strength; 0.7 is the inventors' recommendation,
  /// quoted in §7.3 of the TIM paper.
  double alpha = 0.7;
  /// Fixed-point iterations per ranking round.
  int rank_iterations = 20;
  /// Monte-Carlo cascades used to estimate AP(u|S) each round. (The
  /// original uses a truncated propagation with threshold θ = 1/320; a
  /// small MC estimate plays the same role and keeps this clean-room
  /// implementation simple — see DESIGN.md.)
  uint64_t ap_samples = 64;
  /// Arc-decision strategy of the AP-estimation cascades (see SamplerMode).
  SamplerMode sampler_mode = SamplerMode::kAuto;
  uint64_t seed = 0x121eULL;
};

/// Instrumentation of an IRIE run.
struct IrieStats {
  double seconds_total = 0.0;
  uint64_t rank_sweeps = 0;  // total O(m) fixed-point sweeps performed
};

/// Selects k seeds under the IC model.
Status RunIrie(const Graph& graph, const IrieOptions& options, int k,
               std::vector<NodeId>* seeds, IrieStats* stats);

}  // namespace timpp

#endif  // TIMPP_BASELINES_IRIE_H_
