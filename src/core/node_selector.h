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
//
// This is also the one home of the memory-budget policy every RR solver
// (TIM, TIM+, IMM's LB iterations and selection, RIS) selects through. A
// selection range [first, first + θ) is held as a ResidentPrefix: past
// memory_budget_bytes the prefix is cut back to its largest under-budget
// part and freezes, the cut sets and the never-sampled rest of the range
// go to the spill store when there is one, and the greedy streams over
// prefix + spill + regeneration (coverage/streaming_cover.h). The indexed
// greedy runs only when all θ sets and their inverted index fit the
// budget. Either way the seeds are those of an unbudgeted run.
#ifndef TIMPP_CORE_NODE_SELECTOR_H_
#define TIMPP_CORE_NODE_SELECTOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/run_options.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "engine/solve_context.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "util/alias_table.h"
#include "util/status.h"
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
};

/// The resident part of one selection range: the sets of stream indices
/// [first, first + sets.num_sets()), under the run's memory budget. One
/// prefix may serve several selections of growing θ (IMM's LB
/// iterations): each grows it from where the last left it, until a cut
/// freezes it.
struct ResidentPrefix {
  ResidentPrefix(NodeId num_nodes, uint64_t first_index,
                 size_t memory_budget_bytes);

  /// Stream index of `sets`' set 0.
  uint64_t first;
  /// The resident sets; their memory budget is the run's.
  RRCollection sets;
  /// Per-set edges examined, aligned with `sets`; filled only when a spill
  /// store is in use (empty spills record zero edge counts).
  std::vector<uint64_t> edges;
  /// A cut left the prefix short of its range: it grows no more, and the
  /// rest of every later range is spilled or regenerated.
  bool frozen = false;
};

/// Cuts `prefix` back to its largest prefix whose DataBytes fit the
/// budget, spills the cut suffix to `spill` (optional) at its stream
/// indices, and freezes the prefix. A no-op while DataBytes fit. Returns
/// the sets spilled. Exposed so a caller that keeps consuming the stream
/// past the prefix (RIS's cost loop) can cut before it does: the store
/// appends in index order only.
uint64_t CutToBudget(ResidentPrefix* prefix, RRSpillStore* spill);

/// Runs Algorithm 1 over the range [prefix->first, prefix->first + θ) of
/// `source`'s stream. An unfrozen prefix must end at source.position();
/// it is grown to θ sets and cut to the budget. The never-resident rest of
/// the range is materialized into `spill` (optional) and the stream is
/// left at the range's end, where a budget-off run leaves it. The
/// RrRunStats counters cover this call only, except spill_bytes_written:
/// the store's total so far.
NodeSelection SelectNodes(SampleSource& source, ResidentPrefix* prefix, int k,
                          uint64_t theta, RRSpillStore* spill);

/// Runs Algorithm 1 with the given θ over a fresh range starting at
/// `source`'s cursor (standalone engine or serving-layer shared collection
/// — reused sets are byte-identical to fresh ones). Output is
/// deterministic in the stream's (seed, position), independent of thread
/// count. `memory_budget_bytes` (0 = unlimited) caps the resident
/// DataBytes: past it, selection degrades to streaming sample-and-discard
/// greedy instead of failing — same seeds, bounded memory, k extra
/// sampling passes in the worst case. `spill` (optional, only consulted
/// when the budget trips) turns those passes into disk replays, so a
/// healthy store leaves regeneration_passes at 0.
inline NodeSelection SelectNodes(SampleSource& source, int k, uint64_t theta,
                                 size_t memory_budget_bytes = 0,
                                 RRSpillStore* spill = nullptr) {
  ResidentPrefix prefix(source.graph().num_nodes(), source.position(),
                        memory_budget_bytes);
  return SelectNodes(source, &prefix, k, theta, spill);
}

/// Standalone convenience: consume `engine`'s stream directly.
inline NodeSelection SelectNodes(SamplingEngine& engine, int k,
                                 uint64_t theta,
                                 size_t memory_budget_bytes = 0,
                                 RRSpillStore* spill = nullptr) {
  EngineSampleSource source(engine);
  return SelectNodes(source, k, theta, memory_budget_bytes, spill);
}

/// The preconditions every RR solver shares: a non-empty graph, k in
/// [1, n], ε in (0, 1], ℓ > 0, a custom model for kTriggering, and a
/// context source (if any) bound to `graph` and not combined with a
/// memory budget. A budget caps one run's resident bytes, and its
/// streaming greedy drives the source's engine directly, which a source
/// shared with concurrent requests must never have done to it.
Status ValidateRrRun(const Graph& graph, int k, double epsilon, double ell,
                     const RunOptions& options, const SolveContext& context);

/// A private sample stream, for runs without a context source.
struct OwnedSource {
  OwnedSource(const Graph& graph, const SamplingConfig& config,
              const AliasTable* root_distribution = nullptr)
      : engine(graph, config, root_distribution), source(engine) {}

  SamplingEngine engine;
  EngineSampleSource source;
};

/// The run's spill store: only when a budget can trip and a spill dir is
/// set. The store creates its directory on the first spill, so an unused
/// store writes nothing; it deletes it when the run ends.
std::optional<RRSpillStore> MakeSpillStore(const RunOptions& options,
                                           NodeId num_nodes);

}  // namespace timpp

#endif  // TIMPP_CORE_NODE_SELECTOR_H_
