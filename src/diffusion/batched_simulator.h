// 64-lane bitmap-parallel forward Monte-Carlo under the independent
// cascade model: every vertex carries a uint64_t lane bitmap (bit i =
// "activated in cascade i") and one frontier traversal advances up to 64
// independent cascades by OR-ing activation bits along live arcs. One
// graph walk is amortized across the whole batch — the estimator inside
// Kempe-style Greedy/CELF runs thousands of cascades per seed set and
// pays the traversal once per 64 of them.
#ifndef TIMPP_DIFFUSION_BATCHED_SIMULATOR_H_
#define TIMPP_DIFFUSION_BATCHED_SIMULATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"
#include "util/types.h"

namespace timpp {

/// One activation event of a batched run: `node` became active in the
/// cascades of `lanes` (at least one bit set). The per-lane activation
/// list of lane i is exactly {e.node : e.lanes >> i & 1} — the batched
/// equivalent of IcSimulator::SimulateCollect's readout.
struct LaneActivation {
  NodeId node;
  uint64_t lanes;
};

/// Runs up to 64 IC cascades per traversal on a fixed graph. Holds
/// reusable scratch (per-vertex lane bitmaps with epoch stamping and two
/// frontier queues) so repeated batches do not allocate. Not thread-safe;
/// create one simulator per thread.
///
/// Per-lane distribution: every lane is distributed exactly as one
/// IcSimulator cascade — each (arc, lane) pair draws its own Bernoulli(p)
/// coin the moment that lane's cascade examines the arc. The coins of
/// only the PENDING lanes are drawn, and for sparse p not one by one: a
/// run's (arc × pending-lane) trials form one i.i.d. Bernoulli(p)
/// sequence, so geometric-skip jumps — using the 1/ln(1-p) the graph's
/// constant-probability run metadata already stores — reach the live
/// trials in an expected 1 + p·trials log draws per run. Coin-friendly p
/// (>= ~1/8) flips one uniform per pending lane instead, where jumps stop
/// paying for themselves, and nodes whose pending mask degenerated to few
/// lanes (the common case once cascades diverge) are sampled per lane
/// with the scalar skip idiom — visited state touched only at live
/// landings, so the diverged tail of a batch costs what scalar cascades
/// cost. Determinism: results are a pure function of (graph, seeds, rng
/// state, num_lanes, max_hops).
class BatchedIcSimulator {
 public:
  /// Lanes per batch — the width of the per-vertex bitmap.
  static constexpr int kMaxLanes = 64;

  explicit BatchedIcSimulator(const Graph& graph)
      : graph_(graph), state_(graph.num_nodes()) {
    queue_a_.reserve(256);
    queue_b_.reserve(256);
  }

  /// Simulates `num_lanes` (clamped to [1, 64]) cascades from `seeds` in
  /// one traversal; returns the total activation count summed over lanes
  /// (each lane counting its seeds once, exactly as IcSimulator). The
  /// mean spread estimate of the batch is the return value / num_lanes.
  /// `max_hops` bounds propagation rounds per lane (0 = unlimited).
  uint64_t SimulateBatch(std::span<const NodeId> seeds, Rng& rng,
                         int num_lanes = kMaxLanes, uint32_t max_hops = 0);

  /// As SimulateBatch(), but also appends every activation event to
  /// `*activated` (cleared first). A node appears once per hop at which
  /// some lane first activated it, so it can appear in several events —
  /// with pairwise-disjoint masks whose union is its final lane bitmap.
  uint64_t SimulateBatchCollect(std::span<const NodeId> seeds, Rng& rng,
                                std::vector<LaneActivation>* activated,
                                int num_lanes = kMaxLanes,
                                uint32_t max_hops = 0);

  /// Weighted spread: returns Σ_lanes Σ_{v activated in lane} weights[v],
  /// accumulated as popcount(lane-mask)·weights[v] per activation event.
  /// `weights` must have size >= num_nodes. The batch's mean weighted
  /// spread is the return value / num_lanes.
  double SimulateBatchWeighted(std::span<const NodeId> seeds, Rng& rng,
                               std::span<const double> weights,
                               int num_lanes = kMaxLanes,
                               uint32_t max_hops = 0);

 private:
  /// All per-vertex scratch in one 32-byte record so one activation
  /// touches one cache line, not three arrays: `bits` is the lane bitmap,
  /// valid when `stamp` matches the current epoch (the VisitMarker trick
  /// carrying a 64-bit payload — a new batch starts in O(1) instead of
  /// O(n)); `pending[par]` holds frontier bits awaiting propagation, one
  /// word per BFS level parity (entries are zeroed as they are consumed,
  /// so between runs both words are zero and need no epoch).
  struct NodeState {
    uint64_t bits = 0;
    uint64_t pending[2] = {0, 0};
    uint32_t stamp = 0;
  };

  template <typename OnActivate>
  uint64_t Run(std::span<const NodeId> seeds, Rng& rng, int num_lanes,
               uint32_t max_hops, OnActivate&& on_activate);

  /// Lane bits of v's current batch (0 if v untouched this epoch).
  uint64_t VisitedBits(NodeId v) const {
    const NodeState& st = state_[v];
    return st.stamp == epoch_ ? st.bits : 0;
  }

  const Graph& graph_;
  std::vector<NodeState> state_;
  std::vector<NodeId> queue_a_, queue_b_;
  uint32_t epoch_ = 0;
};

}  // namespace timpp

#endif  // TIMPP_DIFFUSION_BATCHED_SIMULATOR_H_
