#include "baselines/ris.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/node_selector.h"
#include "core/parameters.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "util/math.h"
#include "util/timer.h"

namespace timpp {

namespace {

// Continuation batch of the budgeted cost loop: mirrors the engine's
// kSetsPerCostBatch so the transient scratch stays small.
constexpr uint64_t kBudgetScanBatch = 256;

}  // namespace

Status RunRis(const Graph& graph, const RisOptions& options, int k,
              std::vector<NodeId>* seeds, RisStats* stats) {
  return RunRis(graph, options, k, SolveContext(), seeds, stats);
}

Status RunRis(const Graph& graph, const RisOptions& options, int k,
              const SolveContext& context, std::vector<NodeId>* seeds,
              RisStats* stats) {
  TIMPP_RETURN_NOT_OK(
      ValidateRrRun(graph, k, options.epsilon, options.ell, options, context));
  if (options.max_hops != 0) {
    return Status::InvalidArgument("RIS does not support max_hops");
  }

  Timer timer;
  const double n = static_cast<double>(graph.num_nodes());
  const double m = static_cast<double>(graph.num_edges());

  // τ = scale · k · ℓ · (m + n) · ln n / ε³ (Θ-form from §2.3 with the ℓ
  // amplification folded in).
  const double tau = options.tau_scale * static_cast<double>(k) *
                     options.ell * (m + n) * SafeLogN(graph.num_nodes()) /
                     std::pow(options.epsilon, 3.0);

  // Every RR set costs at least 1 (its root), so the cost rule admits at
  // most ⌈τ⌉ sets; fail before sampling when that, or the caller's cap,
  // could pass the RRSetId space.
  const double max_sets =
      options.max_rr_sets != 0
          ? std::min(std::ceil(tau), static_cast<double>(options.max_rr_sets))
          : std::ceil(tau);
  TIMPP_RETURN_NOT_OK(CheckSampleSize(
      max_sets, "RIS's set count (at most ceil(tau), or max_rr_sets)"));

  RisStats local_stats;
  local_stats.tau = tau;

  std::optional<OwnedSource> owned;
  SampleSource* source = context.source;
  if (source == nullptr) source = &owned.emplace(graph, options).source;
  std::optional<RRSpillStore> spill_store =
      MakeSpillStore(options, graph.num_nodes());
  RRSpillStore* spill = spill_store ? &*spill_store : nullptr;

  ResidentPrefix prefix(graph.num_nodes(), source->position(),
                        options.memory_budget_bytes);

  // Keep sampling until the cumulative examination cost (nodes added +
  // edges examined, the units of Borgs et al.'s τ) reaches τ. The set in
  // flight when the threshold falls is kept (Borgs et al. truncate
  // mid-set; retaining the completed set only strengthens coverage and
  // keeps the implementation simple).
  const SampleBatch batch =
      source->FetchUntilCost(&prefix.sets, tau, options.max_rr_sets);
  local_stats.cost_examined = batch.traversal_cost;
  local_stats.rr_sets_generated = batch.sets_added;
  local_stats.hit_set_cap = batch.hit_set_cap;

  uint64_t sets_spilled = 0;
  if (batch.hit_memory_budget) {
    // Budget fired short of τ. θ is implicit in the cost threshold, so
    // instead of truncating quality, freeze the retained collection as a
    // stream-prefix cache and finish the cost rule without retaining —
    // the per-index RNG contract makes the discarded sets regenerable
    // exactly. The cut comes first: the store appends in index order, and
    // with one every set the scan passes goes to disk on the way.
    sets_spilled = CutToBudget(&prefix, spill);

    SamplingEngine& engine = source->engine();
    RRCollection scratch(graph.num_nodes());
    std::vector<uint64_t> scratch_edges;
    // Resume the SAME admission rule the engine's cost loop was running
    // when the budget interrupted it (shared CostAdmission definition, so
    // stop points match the unbudgeted run bit-exactly).
    CostAdmission rule;
    rule.cost_threshold = tau;
    rule.max_sets = options.max_rr_sets;
    rule.traversal_cost = batch.traversal_cost;
    rule.sets_admitted = batch.sets_added;
    uint64_t scan_pos = source->position();  // global index of the next batch
    bool spill_ok = spill != nullptr;
    bool stop = false;
    while (!stop) {
      scratch.Clear();
      scratch_edges.clear();
      engine.SampleInto(&scratch, kBudgetScanBatch, &scratch_edges);
      if (spill_ok && scratch.num_sets() > 0) {
        // The whole scan batch goes to disk (overshoot past τ included —
        // the cover walk simply never visits past θ). A write failure
        // stops spilling, not the admission scan.
        if (spill
                ->SpillRange(scratch, scratch_edges, 0, scratch.num_sets(),
                             scan_pos)
                .ok()) {
          sets_spilled += scratch.num_sets();
        } else {
          spill_ok = false;
        }
      }
      scan_pos += scratch.num_sets();
      for (size_t j = 0; j < scratch.num_sets(); ++j) {
        if (!rule.WantsMore()) {
          stop = true;
          break;
        }
        rule.Admit(scratch_edges[j] +
                   scratch.Set(static_cast<RRSetId>(j)).size());
      }
    }
    local_stats.hit_set_cap = rule.hit_set_cap;
    local_stats.cost_examined = rule.traversal_cost;
    local_stats.rr_sets_generated = rule.sets_admitted;
  }

  // Greedy over the θ admitted sets through the one budget path: it cuts
  // a prefix the cost loop left over budget, and indexes only when the
  // index fits too.
  NodeSelection selection = SelectNodes(*source, &prefix, k,
                                        local_stats.rr_sets_generated, spill);
  static_cast<RrRunStats&>(local_stats) = selection;
  local_stats.rr_sets_spilled += sets_spilled;
  *seeds = std::move(selection.seeds);
  local_stats.covered_fraction = selection.covered_fraction;
  local_stats.seconds_total = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace timpp
