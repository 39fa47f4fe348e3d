// Algorithm 1 (NodeSelection): sample θ random RR sets, then solve greedy
// maximum coverage over them. With θ >= λ/OPT (Equation 5) the returned set
// is (1-1/e-ε)-approximate with probability >= 1 - n^-ℓ (Theorem 1).
//
// Sampling goes through the shared SamplingEngine. RR sets are i.i.d., so
// worker threads with independent per-index RNG streams produce a
// collection with the same distribution — and, under the engine's
// deterministic merge contract, the *same bytes*: each set's content is a
// pure function of (engine seed, global set index), workers fill
// contiguous index ranges into private shards, and shards merge in worker
// order == index order. The selected seeds, covered fraction, and edge
// counts are therefore identical for every num_threads setting, including
// a fully sequential run. This is the single-machine half of the paper's
// §8 future-work direction (distributing TIM).
#ifndef TIMPP_CORE_NODE_SELECTOR_H_
#define TIMPP_CORE_NODE_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "engine/run_options.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_spill.h"
#include "util/types.h"

namespace timpp {

/// Output of Algorithm 1. The RrRunStats base carries the budget and
/// spill counters (a budget that trips keeps only rr_sets_retained of the
/// θ sets resident; seeds stay bit-identical to a budget-off run).
struct NodeSelection : RrRunStats {
  /// The selected seed set S*_k, in selection order.
  std::vector<NodeId> seeds;
  /// Fraction F_R(S*_k) of the θ RR sets covered; n·F_R(S) is an unbiased
  /// spread estimate (Corollary 1).
  double covered_fraction = 0.0;
  /// θ — number of RR sets sampled.
  uint64_t theta = 0;
  /// Peak heap bytes of the RR collection (Figure 12's metric).
  size_t rr_memory_bytes = 0;
  /// Filled bytes of retained raw set storage (RRCollection::DataBytes
  /// before any index build) — the quantity a memory budget caps, and
  /// comparable between budgeted and budget-off runs.
  size_t rr_data_bytes = 0;
  /// Cost accounting (regeneration passes included).
  uint64_t edges_examined = 0;
  /// Wall-clock split between the sampling and coverage halves.
  double seconds_sampling = 0.0;
  double seconds_coverage = 0.0;
};

/// Runs Algorithm 1 with the given θ over `source`'s stream (standalone
/// engine or serving-layer shared collection — reused sets are
/// byte-identical to fresh ones). Output is deterministic in the stream's
/// (seed, position), independent of thread count. `memory_budget_bytes`
/// (0 = unlimited) caps the RR collection's resident DataBytes: past it,
/// selection degrades to streaming sample-and-discard greedy (see
/// coverage/streaming_cover.h) instead of failing — same seeds, bounded
/// memory, k extra sampling passes in the worst case. `spill` (optional,
/// only consulted when the budget trips) turns those passes into disk
/// replays: the non-resident suffix is written once as shard chunks and
/// streamed back each round, so a healthy store leaves
/// regeneration_passes at 0 — still the same seeds.
NodeSelection SelectNodes(SampleSource& source, int k, uint64_t theta,
                          size_t memory_budget_bytes = 0,
                          RRSpillStore* spill = nullptr);

/// Standalone convenience: consume `engine`'s stream directly.
inline NodeSelection SelectNodes(SamplingEngine& engine, int k,
                                 uint64_t theta,
                                 size_t memory_budget_bytes = 0,
                                 RRSpillStore* spill = nullptr) {
  EngineSampleSource source(engine);
  return SelectNodes(source, k, theta, memory_budget_bytes, spill);
}

}  // namespace timpp

#endif  // TIMPP_CORE_NODE_SELECTOR_H_
