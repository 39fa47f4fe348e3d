#include "core/node_selector.h"

#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"
#include "rrset/rr_collection.h"
#include "util/timer.h"

namespace timpp {

NodeSelection SelectNodes(SampleSource& source, int k, uint64_t theta,
                          size_t memory_budget_bytes, RRSpillStore* spill) {
  NodeSelection result;
  result.theta = theta;

  Timer timer;
  const uint64_t first = source.position();
  RRCollection rr(source.graph().num_nodes());
  rr.set_memory_budget(memory_budget_bytes);
  std::vector<uint64_t> rr_edges;
  const SampleBatch batch =
      source.Fetch(&rr, theta, spill != nullptr ? &rr_edges : nullptr);
  result.edges_examined = batch.edges_examined;

  // Budget enforcement: the engine only checks the budget at its fixed
  // batch boundaries (and a sub-batch request never trips it at all), so
  // the collection can overshoot — cut back to the largest under-budget
  // prefix and advance the stream past the whole request. The dropped
  // indices are regenerated exactly during selection — or, with a spill
  // store, written to disk once (the about-to-be-truncated suffix here,
  // the never-resident remainder via SpillFillTo) and replayed instead.
  // Later phases consume the same index ranges as a budget-off run.
  if (memory_budget_bytes != 0 && rr.DataBytes() > memory_budget_bytes) {
    const size_t keep = MaxPrefixUnderDataBudget(rr, memory_budget_bytes);
    if (spill != nullptr && rr.num_sets() > keep &&
        spill
            ->SpillRange(rr, rr_edges, keep, rr.num_sets() - keep,
                         first + keep)
            .ok()) {
      result.rr_sets_spilled += rr.num_sets() - keep;
    }
    rr.TruncateTo(keep);
  }
  if (spill != nullptr && first + theta > source.position()) {
    // The engine stopped fetching at the budget latch; the rest of the θ
    // range was never sampled. Materialize it straight onto disk in
    // transient batches so the greedy rounds replay it instead of
    // regenerating it k times.
    const SpillFillResult fill = SpillFillTo(source, *spill, first + theta);
    result.edges_examined += fill.batch.edges_examined;
    result.rr_sets_spilled += fill.sets_spilled;
  }
  source.Seek(first + theta);
  result.seconds_sampling = timer.ElapsedSeconds();

  timer.Reset();
  // Captured pre-index in both branches so the stat means the same thing
  // (raw set storage) whether or not an inverted index gets built.
  result.rr_data_bytes = rr.DataBytes();
  result.rr_sets_retained = rr.num_sets();
  if (memory_budget_bytes == 0 ||
      (rr.num_sets() == theta && IndexedDataBytesFitBudget(rr, memory_budget_bytes))) {
    // Everything (inverted index included) fits: the classic indexed
    // greedy. This is the unconditional budget-off path, bit-identical to
    // the pre-budget code.
    rr.BuildIndex();
    result.rr_memory_bytes = rr.MemoryBytes();
    CoverResult cover = GreedyMaxCover(rr, k);
    result.seeds = std::move(cover.seeds);
    result.covered_fraction = cover.covered_fraction;
  } else {
    // Degrade, don't die: streaming greedy over the retained prefix plus
    // per-round regeneration of the dropped suffix. Same seeds (the
    // streaming rule is bit-identical), resident DataBytes <= budget.
    result.hit_memory_budget = true;
    result.rr_memory_bytes = rr.MemoryBytes();
    StreamingCoverResult streamed =
        StreamingGreedyMaxCover(source.engine(), rr, first, theta, k, spill);
    result.edges_examined += streamed.edges_examined;
    result.regeneration_passes = streamed.regeneration_passes;
    result.sets_spill_read = streamed.sets_spill_read;
    result.seeds = std::move(streamed.cover.seeds);
    result.covered_fraction = streamed.cover.covered_fraction;
  }
  if (spill != nullptr) {
    result.spill_bytes_written = spill->stats().bytes_written;
  }
  result.seconds_coverage = timer.ElapsedSeconds();
  return result;
}

}  // namespace timpp
