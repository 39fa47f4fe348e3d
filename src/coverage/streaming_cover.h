// Greedy maximum coverage in O(n) working memory — the §7.2 memory story
// for the non-RIS algorithms. Where GreedyMaxCover needs every RR set plus
// an inverted index resident, the streaming variant holds only per-node
// coverage counts and a per-set liveness bit, and streams every live set
// past them each greedy round: retained sets are read from a
// budget-bounded prefix cache, spilled sets are replayed from the disk
// tier (rrset/rr_spill.h), and sets that are in neither are regenerated
// on the fly through SamplingEngine::VisitSamples (exact, by the
// per-index RNG contract). This is the sample-and-discard trick of
// Borgs et al.'s RR framework and SKIM-style sketching: trade k extra
// passes for an O(n + θ/8)-byte footprint.
//
// Each round's pass runs on the engine's own pool, num_threads workers
// in all (at 1 thread it runs inline on the caller). The work units,
// fixed for the whole run, are 4096-set slices of the resident prefix
// and whole spill chunks, claimed dynamically. A worker reads,
// validates and decodes its own chunks (RRSpillStore::VisitChunk, outside
// the store mutex) and scans each unit as one flat member array into its
// own uint32_t counts: the first pass adds every member, and each later
// pass finds the newest seed in the array, maps each hit to its set with
// a forward cursor over the offsets, subtracts the members of the hit
// sets still live and puts those sets on the worker's own list. After the
// pass the calling thread sums the counts and applies the new dead bits,
// so workers never write shared state and a round wakes the pool once.
// Only the ranges no chunk covers, plus the
// chunks whose read or decode failed this round, are then regenerated
// through VisitSamples.
// Transient footprint on top of the resident prefix and the θ/8-byte dead
// bits: T decoded chunks plus T·4·n bytes of counts, for T workers and n
// nodes.
//
// The selection rule — argmax live-coverage count, ties to the smaller
// node id — and the decrements are GreedyMaxCover's, so the returned
// CoverResult is bit-identical to the indexed path on the same θ sets, at
// every thread count. Budgeted TIM/IMM/RIS, which all select through
// SelectNodes (core/node_selector.h), therefore return the same seeds as
// budget-off runs. The caller bounds θ by the RRSetId space
// (kMaxRRSets, util/types.h), which is what lets per-worker counts and
// the local set ids be 32-bit.
#ifndef TIMPP_COVERAGE_STREAMING_COVER_H_
#define TIMPP_COVERAGE_STREAMING_COVER_H_

#include <cstddef>
#include <cstdint>

#include "coverage/greedy_cover.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"

namespace timpp {

/// CoverResult plus the cost of obtaining it without retained sets.
struct StreamingCoverResult {
  CoverResult cover;
  /// Greedy rounds that regenerated at least one non-cached set (<= k;
  /// 0 when the cache and the spill store held every set).
  uint64_t regeneration_passes = 0;
  /// RR sets regenerated across all rounds (a set already known dead is
  /// skipped, so later rounds regenerate monotonically fewer).
  uint64_t sets_regenerated = 0;
  /// Edges re-examined by regeneration (the extra traversal cost the
  /// budget trades for memory; add to a run's edges_examined accounting).
  uint64_t edges_examined = 0;
  /// Greedy rounds that replayed at least one set from the spill store,
  /// and sets so replayed — the disk reads that displaced regeneration.
  uint64_t spill_read_passes = 0;
  uint64_t sets_spill_read = 0;
};

/// Greedy max coverage over the θ = `total_sets` RR sets of global engine
/// indices [first_index, first_index + total_sets); θ must not exceed
/// kMaxRRSets. `cache` must hold the sets of indices [first_index,
/// first_index + cache.num_sets()) — any prefix, including none — and
/// needs no inverted index; the remaining sets are replayed from `spill`
/// where its chunks cover them (when a store is given) and regenerated
/// from `engine` otherwise. Replayed sets are byte-identical to
/// regenerated ones, so the result is bit-identical to
/// GreedyMaxCover(full collection, k) either way — the store only
/// converts traversal passes into disk reads. A chunk whose read fails is
/// regenerated for that round; the other chunks still replay. Passes run
/// on engine.pool(), so the caller must have `engine` to itself, as its
/// VisitSamples regeneration needs anyway (never an engine that
/// concurrent requests share); every result field is independent of
/// engine.num_threads().
StreamingCoverResult StreamingGreedyMaxCover(SamplingEngine& engine,
                                             const RRCollection& cache,
                                             uint64_t first_index,
                                             uint64_t total_sets, int k,
                                             RRSpillStore* spill = nullptr);

/// Accounting of one SpillFillTo call.
struct SpillFillResult {
  /// Summed sampling accounting of the filled batches (edges_examined
  /// feeds the run's totals exactly as resident sampling would).
  SampleBatch batch;
  /// Sets written to the store by this call.
  uint64_t sets_spilled = 0;
  /// False when a spill write failed: sampling stopped early and the
  /// uncovered range stays a gap (streaming cover regenerates it — slower,
  /// never wrong).
  bool spill_ok = true;
};

/// Materializes the stream range [source.position(), target_index) into
/// `spill` in transient batches of one engine call each (8192 sets, never
/// more than one batch resident), written as chunks of at most 1024 sets,
/// skipping any prefix the store already covers, then seeks
/// `source` to `target_index`. This is how the budget path gets suffix
/// sets onto disk exactly once instead of regenerating them every greedy
/// round: sample → spill → drop, preserving stream positions bit-for-bit.
SpillFillResult SpillFillTo(SampleSource& source, RRSpillStore& spill,
                            uint64_t target_index);

/// Largest prefix length p such that a collection holding only the first
/// p sets of `rr` has DataBytes() <= budget_bytes (without index). The
/// budgeted selection truncates to this prefix after the engine's
/// batch-granular budget stop overshoots.
size_t MaxPrefixUnderDataBudget(const RRCollection& rr, size_t budget_bytes);

/// Whether `rr` would still be within `budget_bytes` of DataBytes() after
/// BuildIndex() — if so, budgeted selection can take the fast indexed
/// GreedyMaxCover path and remain under budget.
bool IndexedDataBytesFitBudget(const RRCollection& rr, size_t budget_bytes);

}  // namespace timpp

#endif  // TIMPP_COVERAGE_STREAMING_COVER_H_
