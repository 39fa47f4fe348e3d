// Forward Monte-Carlo simulation of one cascade under the independent
// cascade model (§2.1 of the paper).
#ifndef TIMPP_DIFFUSION_IC_SIMULATOR_H_
#define TIMPP_DIFFUSION_IC_SIMULATOR_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/types.h"
#include "util/visit_marker.h"

namespace timpp {

/// Runs IC cascades on a fixed graph. Holds reusable scratch (a visit marker,
/// a BFS queue and an arc buffer) so repeated simulations do not allocate.
/// Not thread-safe; create one simulator per thread.
class IcSimulator {
 public:
  /// `mode` picks the arc-decision strategy: kAuto resolves to geometric
  /// skip sampling when the graph's out-arc constant-probability runs are
  /// long enough to amortize it (uniform / trivalency-grouped graphs;
  /// weighted-cascade out-lists mix per-target probabilities and resolve
  /// to per-arc). Both modes simulate the exact IC cascade distribution.
  explicit IcSimulator(const Graph& graph,
                       SamplerMode mode = SamplerMode::kAuto)
      : graph_(graph),
        use_skip_(mode == SamplerMode::kSkip ||
                  (mode == SamplerMode::kAuto &&
                   graph.AvgOutRunLength() >= kSkipRunLengthThreshold)),
        visited_(graph.num_nodes()) {
    queue_.reserve(256);
  }

  /// True when the traversal resolved to geometric skip sampling.
  bool skip_mode() const { return use_skip_; }

  /// Simulates one cascade from `seeds`; returns the number of activated
  /// nodes (including the seeds themselves). Duplicate seeds are counted
  /// once. Equivalent to sampling a live-edge graph g (each edge kept with
  /// p(e)) and counting nodes reachable from the seed set.
  ///
  /// `max_hops` bounds the number of propagation rounds (0 = unlimited):
  /// the time-critical variant where the cascade is cut off after a
  /// deadline (Chen et al., AAAI'12 — cited as [4] by the paper).
  uint64_t Simulate(std::span<const NodeId> seeds, Rng& rng,
                    uint32_t max_hops = 0);

  /// As Simulate(), but also appends every activated node to `*activated`
  /// (cleared first). Used by baselines that need per-node activation data.
  uint64_t SimulateCollect(std::span<const NodeId> seeds, Rng& rng,
                           std::vector<NodeId>* activated,
                           uint32_t max_hops = 0);

 private:
  const Graph& graph_;
  bool use_skip_;
  VisitMarker visited_;
  std::vector<NodeId> queue_;
  /// Per-arc mode's kept arcs of the node being expanded; grown to the
  /// largest out-degree seen.
  std::vector<Arc> live_;
};

}  // namespace timpp

#endif  // TIMPP_DIFFUSION_IC_SIMULATOR_H_
