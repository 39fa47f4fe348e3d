#include "core/node_selector.h"

#include <cassert>
#include <string>
#include <utility>

#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"

namespace timpp {

ResidentPrefix::ResidentPrefix(NodeId num_nodes, uint64_t first_index,
                               size_t memory_budget_bytes)
    : first(first_index), sets(num_nodes) {
  sets.set_memory_budget(memory_budget_bytes);
}

uint64_t CutToBudget(ResidentPrefix* prefix, RRSpillStore* spill) {
  RRCollection& rr = prefix->sets;
  if (!rr.OverMemoryBudget()) return 0;
  // The engine only checks the budget at its fixed batch boundaries (and a
  // sub-batch request never trips it at all), so the collection can
  // overshoot. The cut sets stay reachable by index: replayed from the
  // store once spilled here, regenerated otherwise.
  const size_t keep = MaxPrefixUnderDataBudget(rr, rr.memory_budget());
  const size_t cut = rr.num_sets() - keep;
  uint64_t spilled = 0;
  if (spill != nullptr &&
      spill->SpillRange(rr, prefix->edges, keep, cut, prefix->first + keep)
          .ok()) {
    spilled = cut;
  }
  rr.TruncateTo(keep);
  if (prefix->edges.size() > keep) prefix->edges.resize(keep);
  prefix->frozen = true;
  return spilled;
}

NodeSelection SelectNodes(SampleSource& source, ResidentPrefix* prefix, int k,
                          uint64_t theta, RRSpillStore* spill) {
  assert(prefix->frozen ||
         source.position() == prefix->first + prefix->sets.num_sets());
  NodeSelection result;
  result.theta = theta;
  RRCollection& rr = prefix->sets;
  const uint64_t first = prefix->first;

  // An earlier selection over this prefix may have indexed it; release the
  // index so neither the engine's in-flight budget checks nor the checks
  // below charge those stale bytes.
  rr.DropIndex();
  if (!prefix->frozen) {
    if (rr.num_sets() < theta) {
      result.edges_examined =
          source
              .Fetch(&rr, theta - rr.num_sets(),
                     spill != nullptr ? &prefix->edges : nullptr)
              .edges_examined;
    }
    result.rr_sets_spilled = CutToBudget(prefix, spill);
  }
  if (spill != nullptr && first + theta > source.position()) {
    // The prefix is frozen short of the range, so the rest of it was never
    // sampled. Materialize it straight onto disk in transient batches so
    // the greedy rounds replay it instead of regenerating it k times.
    const SpillFillResult fill = SpillFillTo(source, *spill, first + theta);
    result.edges_examined += fill.batch.edges_examined;
    result.rr_sets_spilled += fill.sets_spilled;
  }
  // Later phases consume the same index ranges as a budget-off run.
  source.Seek(first + theta);

  // Captured pre-index in both branches so the stat means the same thing
  // (raw set storage) whether or not an inverted index gets built.
  result.rr_data_bytes = rr.DataBytes();
  result.rr_sets_retained = rr.num_sets();
  const size_t budget = rr.memory_budget();
  if (rr.num_sets() == theta &&
      (budget == 0 || IndexedDataBytesFitBudget(rr, budget))) {
    // Everything (inverted index included) fits: the classic indexed
    // greedy, the unconditional budget-off path.
    rr.BuildIndex(source.pool());
    result.rr_memory_bytes = rr.MemoryBytes();
    CoverResult cover = GreedyMaxCover(rr, k);
    result.seeds = std::move(cover.seeds);
    result.covered_fraction = cover.covered_fraction;
  } else {
    // Degrade, don't die: streaming greedy over the resident prefix plus
    // spill replay or per-round regeneration of the rest. Same seeds (the
    // streaming rule is bit-identical), resident DataBytes <= budget. It
    // runs on the source engine's pool, which only a standalone source may
    // lend: ValidateRrRun refuses a budget with a context source.
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
  return result;
}

Status ValidateRrRun(const Graph& graph, int k, double epsilon, double ell,
                     const RunOptions& options, const SolveContext& context) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  if (k < 1 || static_cast<uint64_t>(k) > graph.num_nodes()) {
    return Status::InvalidArgument("k must be in [1, n], got " +
                                   std::to_string(k));
  }
  if (!(epsilon > 0.0) || epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  if (!(ell > 0.0)) {
    return Status::InvalidArgument("ell must be positive");
  }
  if (options.model == DiffusionModel::kTriggering &&
      options.custom_model == nullptr) {
    return Status::InvalidArgument(
        "model == kTriggering requires options.custom_model");
  }
  if (context.source != nullptr && &context.source->graph() != &graph) {
    return Status::InvalidArgument(
        "SolveContext source is bound to a different graph");
  }
  if (context.source != nullptr && options.memory_budget_bytes != 0) {
    return Status::InvalidArgument(
        "memory_budget_bytes requires a standalone run (no SolveContext "
        "source): the budget caps per-request resident bytes, which a "
        "shared collection does not have");
  }
  return Status::OK();
}

std::optional<RRSpillStore> MakeSpillStore(const RunOptions& options,
                                           NodeId num_nodes) {
  if (options.memory_budget_bytes == 0 || options.spill_dir.empty()) {
    return std::nullopt;
  }
  RRSpillOptions spill_options;
  spill_options.dir = options.spill_dir;
  return std::optional<RRSpillStore>(std::in_place, num_nodes,
                                     std::move(spill_options));
}

}  // namespace timpp
