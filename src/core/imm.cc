#include "core/imm.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/parameters.h"
#include "core/tim.h"
#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"
#include "engine/phase_cache.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "util/alias_table.h"
#include "util/math.h"
#include "util/timer.h"

namespace timpp {

namespace {

// Grows `rr` (whose set 0 is stream index `stream_first`) with the next
// stream sets until it holds `target` sets or its memory budget stops the
// growth. On a budget stop the collection is cut back to its largest
// under-budget prefix (the engine's batch-granular stop overshoots) and
// `*budget_hit` latches true: the cache freezes as a stream prefix and the
// remaining sets exist only by index — regenerated on demand, unless a
// spill store is given, in which case the about-to-be-dropped suffix and
// every later index up to `target` are written to disk exactly once (the
// suffix here, the never-resident remainder via SpillFillTo) for replay.
// With a store, `rr_edges` tracks the live collection's per-set edge
// counts (kept aligned with `rr`) and `*sets_spilled` accumulates.
void GrowTo(SampleSource& source, uint64_t stream_first, uint64_t target,
            RRCollection* rr, bool* budget_hit, RRSpillStore* spill,
            std::vector<uint64_t>* rr_edges, uint64_t* sets_spilled) {
  if (!*budget_hit && rr->num_sets() < target) {
    // Appending invalidates any index from the previous iteration's greedy
    // solve; release it up front so neither the engine's in-flight budget
    // checks nor the cap test below charge those stale bytes.
    rr->DropIndex();
    source.Fetch(rr, target - rr->num_sets(),
                 spill != nullptr ? rr_edges : nullptr);
    // The engine's budget check is batch-granular (and never fires inside
    // a sub-batch request), so test the cap directly and cut back to the
    // largest under-budget prefix; the dropped sets remain reachable by
    // index regeneration (or disk replay once spilled).
    if (rr->memory_budget() != 0 && rr->DataBytes() > rr->memory_budget()) {
      const size_t keep = MaxPrefixUnderDataBudget(*rr, rr->memory_budget());
      if (spill != nullptr && rr->num_sets() > keep &&
          spill
              ->SpillRange(*rr, *rr_edges, keep, rr->num_sets() - keep,
                           stream_first + keep)
              .ok()) {
        *sets_spilled += rr->num_sets() - keep;
      }
      rr->TruncateTo(keep);
      if (spill != nullptr && rr_edges->size() > keep) rr_edges->resize(keep);
      *budget_hit = true;
    }
  }
  if (*budget_hit && spill != nullptr) {
    // The cache is frozen; put the rest of the requested range on disk in
    // transient batches so greedy rounds replay it instead of traversing
    // the graph again. (No-op for ranges already spilled by an earlier,
    // smaller target.)
    const SpillFillResult fill =
        SpillFillTo(source, *spill, stream_first + target);
    *sets_spilled += fill.sets_spilled;
  }
}

}  // namespace

Status RunImm(const Graph& graph, const ImmOptions& options,
              ImmResult* result) {
  return RunImm(graph, options, SolveContext(), result);
}

Status RunImm(const Graph& graph, const ImmOptions& options,
              const SolveContext& context, ImmResult* result) {
  TIMPP_RETURN_NOT_OK(
      ValidateImParameters(graph, options.k, options.epsilon, options.ell));
  if (options.model == DiffusionModel::kTriggering &&
      options.custom_model == nullptr) {
    return Status::InvalidArgument(
        "model == kTriggering requires options.custom_model");
  }
  if (context.source != nullptr && &context.source->graph() != &graph) {
    return Status::InvalidArgument(
        "SolveContext source is bound to a different graph");
  }
  if (context.source != nullptr && options.node_weights != nullptr) {
    return Status::InvalidArgument(
        "node_weights require a standalone run (no SolveContext source): "
        "the root distribution lives in the private engine");
  }

  // Node-weighted runs replace n by W = Σ w(v) everywhere a spread range
  // appears; the union-bound terms (ln n, log C(n,k)) keep using n.
  AliasTable root_dist;
  if (options.node_weights != nullptr) {
    if (options.node_weights->size() != graph.num_nodes()) {
      return Status::InvalidArgument("node_weights size must equal n");
    }
    for (double w : *options.node_weights) {
      if (!(w >= 0.0)) {
        return Status::InvalidArgument("node_weights must be non-negative");
      }
    }
    root_dist.Build(*options.node_weights);
    if (root_dist.empty()) {
      return Status::InvalidArgument(
          "node_weights must contain a positive entry");
    }
  }
  const double n = options.node_weights != nullptr
                       ? root_dist.total_weight()
                       : static_cast<double>(graph.num_nodes());
  const double ln_n = SafeLogN(graph.num_nodes());
  const double log_cnk =
      LogBinomial(graph.num_nodes(), static_cast<uint64_t>(options.k));
  const double eps = options.epsilon;

  double ell = options.ell;
  if (options.adjust_ell) {
    ell = ell * (1.0 + std::log(2.0) / ln_n);
  }

  ImmStats stats;
  Timer total_timer;

  // ---- Sampling phase: binary-search a lower bound LB of OPT ----------
  // ε' = √2·ε;  λ' = (2 + 2ε'/3)·(log C(n,k) + ℓ·ln n + ln log2 n)·n / ε'².
  const double eps_prime = std::sqrt(2.0) * eps;
  const double log2_n = std::max(2.0, std::log2(n));
  stats.lambda_prime = (2.0 + 2.0 * eps_prime / 3.0) *
                       (log_cnk + ell * ln_n + std::log(log2_n)) * n /
                       (eps_prime * eps_prime);
  // λ* = 2n·((1-1/e)·α + β)² / ε², α = √(ℓ·ln n + ln 2),
  // β = √((1-1/e)·(log C(n,k) + ℓ·ln n + ln 2)).
  const double one_minus_inv_e = 1.0 - 1.0 / std::exp(1.0);
  const double alpha = std::sqrt(ell * ln_n + std::log(2.0));
  const double beta =
      std::sqrt(one_minus_inv_e * (log_cnk + ell * ln_n + std::log(2.0)));
  stats.lambda_star = 2.0 * n *
                      (one_minus_inv_e * alpha + beta) *
                      (one_minus_inv_e * alpha + beta) / (eps * eps);
  // Fail before sampling anything when θ must pass the RRSetId space: LB
  // is at most max(n, 1) (its floor is 1), so θ = λ*/LB >= λ*/max(n, 1).
  // Each θ_i is checked before its iteration samples.
  TIMPP_RETURN_NOT_OK(
      CheckSampleSize(std::ceil(stats.lambda_star / std::max(n, 1.0)),
                      "IMM's theta >= lambda*/n"));

  std::optional<SamplingEngine> local_engine;
  std::optional<EngineSampleSource> local_source;
  SampleSource* source = context.source;
  if (source == nullptr) {
    local_engine.emplace(graph, options,
                         options.node_weights != nullptr ? &root_dist
                                                         : nullptr);
    local_source.emplace(*local_engine);
    source = &*local_source;
  }

  Timer phase_timer;
  const size_t budget = options.memory_budget_bytes;
  const uint64_t stream_start = source->position();

  // One spill store serves both phases (chunks append in increasing index
  // order; the gap between the phases' ranges is fine). Only built when a
  // budget can trip; its chunk directory dies with the run.
  std::optional<RRSpillStore> spill_store;
  if (budget != 0 && !options.spill_dir.empty()) {
    RRSpillOptions spill_options;
    spill_options.dir = options.spill_dir;
    spill_store.emplace(graph.num_nodes(), std::move(spill_options));
  }
  RRSpillStore* spill = spill_store ? &*spill_store : nullptr;
  uint64_t sets_spilled = 0;

  // The LB memo only covers the canonical configuration: a stream consumed
  // from index 0 (how every run starts) and the corrected no-reuse
  // variant, whose selection phase does not need the sampling-phase sets
  // back.
  PhaseCache* memo = (stream_start == 0 && !options.reuse_samples &&
                      options.node_weights == nullptr)
                         ? context.phase_cache
                         : nullptr;

  RRCollection sampling_rr(graph.num_nodes());
  sampling_rr.set_memory_budget(budget);
  std::vector<uint64_t> sampling_edges;  // per-set edges, spill path only
  bool sampling_budget_hit = false;
  uint64_t sampling_target = 0;  // θ_i of the latest iteration
  double lb = 1.0;
  // Hit or compute obligation; same-key concurrent requests wait inside
  // AcquireLb and wake as hits once this one publishes. An error return
  // destroys the unpublished lease, waking them to recompute instead.
  PhaseCache::LbLease lease;
  if (memo != nullptr) {
    lease = memo->AcquireLb(
        {options, options.k, DoubleBits(eps), DoubleBits(ell)});
  }
  const LbPhaseEntry* hit = lease.entry();
  if (hit != nullptr) {
    // The whole binary search is a pure function of the key: restore LB
    // and jump the stream past the sets it consumed.
    stats.lb_cache_hit = true;
    lb = hit->lb;
    sampling_target = hit->rr_sets_sampling;
    stats.sampling_iterations = hit->sampling_iterations;
    source->Seek(hit->end_index);
  } else {
    const int max_iterations = std::max(1, static_cast<int>(log2_n) - 1);
    for (int i = 1; i <= max_iterations; ++i) {
      const double x_i = n / std::pow(2.0, i);
      TIMPP_RETURN_NOT_OK(CheckSampleSize(std::ceil(stats.lambda_prime / x_i),
                                          "IMM's theta_i = lambda'/x_i"));
      const uint64_t theta_i = static_cast<uint64_t>(
          std::max(1.0, std::ceil(stats.lambda_prime / x_i)));
      GrowTo(*source, stream_start, theta_i, &sampling_rr,
             &sampling_budget_hit, spill, &sampling_edges, &sets_spilled);
      // Keep the stream aligned with a budget-off run: the sets the cache
      // could not retain still occupy indices [num_sets, θ_i) and are
      // regenerated from them below.
      source->Seek(stream_start + theta_i);
      sampling_target = theta_i;
      CoverResult cover;
      if (!sampling_budget_hit &&
          (budget == 0 || IndexedDataBytesFitBudget(sampling_rr, budget))) {
        sampling_rr.BuildIndex();
        cover = GreedyMaxCover(sampling_rr, options.k);
      } else {
        // Budgeted greedy: retained prefix + per-round regeneration. Seeds
        // and covered_fraction are bit-identical to the indexed path, so LB
        // — and with it every downstream θ — matches the budget-off run.
        stats.hit_memory_budget = true;
        StreamingCoverResult streamed =
            StreamingGreedyMaxCover(source->engine(), sampling_rr,
                                    stream_start, theta_i, options.k, spill);
        stats.regeneration_passes += streamed.regeneration_passes;
        stats.sets_spill_read += streamed.sets_spill_read;
        cover = std::move(streamed.cover);
      }
      stats.sampling_iterations = i;
      if (n * cover.covered_fraction >= (1.0 + eps_prime) * x_i) {
        lb = n * cover.covered_fraction / (1.0 + eps_prime);
        break;
      }
    }
    if (memo != nullptr) {
      LbPhaseEntry entry;
      entry.lb = lb;
      entry.sampling_iterations = stats.sampling_iterations;
      entry.rr_sets_sampling = sampling_target;
      entry.end_index = source->position();
      lease.Publish(entry);
    }
  }
  stats.lb = lb;
  stats.rr_sets_sampling = sampling_target;
  stats.seconds_sampling = phase_timer.ElapsedSeconds();

  // ---- Selection phase: θ = λ* / LB -----------------------------------
  TIMPP_RETURN_NOT_OK(CheckSampleSize(std::ceil(stats.lambda_star / lb),
                                      "IMM's theta = lambda*/LB"));
  stats.theta = static_cast<uint64_t>(
      std::max(1.0, std::ceil(stats.lambda_star / lb)));

  phase_timer.Reset();
  RRCollection selection_rr(graph.num_nodes());
  selection_rr.set_memory_budget(budget);
  std::vector<uint64_t> selection_edges;
  RRCollection* cache = &selection_rr;
  std::vector<uint64_t>* cache_edges = &selection_edges;
  uint64_t sel_first = stream_start;
  uint64_t sel_total = stats.theta;
  bool sel_budget_hit = false;
  if (options.reuse_samples) {
    // Original IMM: keep the sampling-phase sets and top up. (Subtly
    // biased — the stopping rule conditions these samples; kept for
    // study.) The selection collection is then exactly the sample stream
    // from the run's start, so the sampling cache continues as the
    // selection cache — no copy, and the budgeted prefix carries over.
    cache = &sampling_rr;
    cache_edges = &sampling_edges;
    sel_total = std::max(stats.theta, sampling_target);
    sel_budget_hit = sampling_budget_hit;
  } else {
    // Actually release the sampling phase's storage (Clear would keep
    // vector capacities, leaving ~2x the budget resident while
    // selection_rr grows toward the cap).
    sampling_rr = RRCollection(graph.num_nodes());
    std::vector<uint64_t>().swap(sampling_edges);
    sel_first = source->position();
  }
  // Grow the cache to hold the whole selection range [sel_first,
  // sel_first + sel_total) — or as much of its prefix as the budget
  // allows (the growth freezes once the budget latched, keeping the cache
  // a contiguous stream prefix; with a spill store the rest of the range
  // goes to disk).
  GrowTo(*source, sel_first, sel_total, cache, &sel_budget_hit, spill,
         cache_edges, &sets_spilled);
  source->Seek(sel_first + sel_total);
  // The reuse path may carry the sampling phase's index over unchanged;
  // drop it so the budget-fit check below prices one index, not two.
  cache->DropIndex();

  CoverResult cover;
  // Pre-index capture: the stat compares across budget settings.
  stats.rr_data_bytes = cache->DataBytes();
  if (!sel_budget_hit &&
      (budget == 0 || IndexedDataBytesFitBudget(*cache, budget))) {
    cache->BuildIndex();
    stats.rr_memory_bytes = cache->MemoryBytes();
    cover = GreedyMaxCover(*cache, options.k);
  } else {
    stats.hit_memory_budget = true;
    stats.rr_memory_bytes = cache->MemoryBytes();
    StreamingCoverResult streamed =
        StreamingGreedyMaxCover(source->engine(), *cache, sel_first,
                                sel_total, options.k, spill);
    stats.regeneration_passes += streamed.regeneration_passes;
    stats.sets_spill_read += streamed.sets_spill_read;
    cover = std::move(streamed.cover);
  }
  stats.rr_sets_retained = cache->num_sets();
  stats.rr_sets_spilled = sets_spilled;
  if (spill != nullptr) {
    stats.spill_bytes_written = spill->stats().bytes_written;
  }
  stats.estimated_spread = n * cover.covered_fraction;
  stats.seconds_selection = phase_timer.ElapsedSeconds();
  stats.seconds_total = total_timer.ElapsedSeconds();

  result->seeds = std::move(cover.seeds);
  result->stats = stats;
  return Status::OK();
}

}  // namespace timpp
