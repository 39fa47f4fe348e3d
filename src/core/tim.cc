#include "core/tim.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/kpt_estimator.h"
#include "core/kpt_refiner.h"
#include "core/node_selector.h"
#include "core/parameters.h"
#include "engine/phase_cache.h"
#include "engine/sample_source.h"
#include "rrset/rr_spill.h"
#include "util/timer.h"

namespace timpp {

Status TimSolver::Run(const TimOptions& options, TimResult* result) const {
  return Run(options, SolveContext(), result);
}

Status TimSolver::Run(const TimOptions& options, const SolveContext& context,
                      TimResult* result) const {
  TIMPP_RETURN_NOT_OK(ValidateRrRun(graph_, options.k, options.epsilon,
                                    options.ell, options, context));

  const uint64_t n = graph_.num_nodes();
  TimStats stats;

  double ell = options.ell;
  if (options.adjust_ell) {
    ell = options.use_refinement ? AdjustEllForTimPlus(ell, n)
                                 : AdjustEllForTim(ell, n);
  }
  stats.ell_used = ell;
  stats.lambda = ComputeLambda(n, options.k, options.epsilon, ell);

  // One sample stream serves all three phases: the global set-index stream
  // runs through Algorithms 2, 3 and 1 in order, so the whole run is
  // deterministic in (seed) and independent of num_threads. A context
  // supplies the stream (shared across requests); standalone runs build a
  // private engine.
  std::optional<OwnedSource> owned;
  SampleSource* source = context.source;
  if (source == nullptr) source = &owned.emplace(graph_, options).source;
  Timer total_timer;

  const double eps_prime =
      options.use_refinement
          ? RecommendedEpsPrime(options.epsilon, options.k, ell)
          : 0.0;
  stats.eps_prime = eps_prime;
  // Fail before sampling anything when a sample size must pass the RRSetId
  // space: KPT⁺ and KPT* are at most n, so θ >= λ/n and θ′ >= λ′/n.
  TIMPP_RETURN_NOT_OK(
      CheckSampleSize(std::ceil(stats.lambda / n), "TIM's theta >= lambda/n"));
  if (options.use_refinement) {
    TIMPP_RETURN_NOT_OK(CheckSampleSize(
        std::ceil(ComputeLambdaPrime(n, eps_prime, ell) / n),
        "TIM+'s theta' >= lambda'/n"));
  }

  // PhaseCache entries record positions of a stream consumed from index 0
  // (how every run starts); only engage the memo in that situation.
  PhaseCache* memo =
      source->position() == 0 ? context.phase_cache : nullptr;

  double kpt_bound = 0.0;
  // Acquire either a ready entry or the obligation to compute it; a
  // concurrent request for the same key blocks inside AcquireKpt until
  // this one publishes (once-computation). An error return below destroys
  // the unpublished lease, which wakes the waiters to recompute.
  PhaseCache::KptLease lease;
  if (memo != nullptr) {
    lease = memo->AcquireKpt({options, options.k, options.use_refinement,
                              DoubleBits(ell), DoubleBits(eps_prime)});
  }
  const KptPhaseEntry* hit = lease.entry();
  if (hit != nullptr) {
    // Algorithms 2(+3) are pure functions of the key: restore their
    // output and jump the stream to where they left it. Phase timings
    // stay 0 — they reflect work actually done this run.
    stats.kpt_cache_hit = true;
    stats.kpt_star = hit->kpt_star;
    stats.kpt_plus = hit->kpt_plus;
    stats.theta_prime = hit->theta_prime;
    stats.rr_sets_kpt = hit->rr_sets_kpt;
    stats.edges_examined += hit->edges_kpt + hit->edges_refine;
    source->Seek(hit->end_index);
    kpt_bound = options.use_refinement ? hit->kpt_plus : hit->kpt_star;
  } else {
    // Phase 1: parameter estimation (Algorithm 2).
    Timer phase_timer;
    KptEstimate kpt = EstimateKpt(*source, options.k, ell);
    stats.seconds_kpt_estimation = phase_timer.ElapsedSeconds();
    stats.kpt_star = kpt.kpt_star;
    stats.rr_sets_kpt = kpt.rr_sets_generated;
    stats.edges_examined += kpt.edges_examined;

    // Intermediate step (Algorithm 3) — TIM+ only.
    kpt_bound = kpt.kpt_star;
    uint64_t edges_refine = 0;
    if (options.use_refinement) {
      phase_timer.Reset();
      TIMPP_RETURN_NOT_OK(CheckSampleSize(
          std::ceil(ComputeLambdaPrime(n, eps_prime, ell) / kpt.kpt_star),
          "TIM+'s theta' = lambda'/KPT*"));
      KptRefinement refinement =
          RefineKpt(*source, *kpt.last_iteration_rr, options.k, kpt.kpt_star,
                    eps_prime, ell);
      stats.seconds_kpt_refinement = phase_timer.ElapsedSeconds();
      stats.kpt_plus = refinement.kpt_plus;
      stats.theta_prime = refinement.theta_prime;
      stats.edges_examined += refinement.edges_examined;
      edges_refine = refinement.edges_examined;
      kpt_bound = refinement.kpt_plus;
    } else {
      stats.kpt_plus = kpt.kpt_star;
    }

    if (memo != nullptr) {
      KptPhaseEntry entry;
      entry.kpt_star = stats.kpt_star;
      entry.kpt_plus = stats.kpt_plus;
      entry.theta_prime = stats.theta_prime;
      entry.rr_sets_kpt = stats.rr_sets_kpt;
      entry.edges_kpt = kpt.edges_examined;
      entry.edges_refine = edges_refine;
      entry.end_index = source->position();
      lease.Publish(entry);
    }
  }

  // Phase 2: node selection (Algorithm 1) with θ = λ / KPT bound.
  TIMPP_RETURN_NOT_OK(CheckSampleSize(std::ceil(stats.lambda / kpt_bound),
                                      "TIM's theta = lambda/KPT"));
  stats.theta =
      static_cast<uint64_t>(std::max(1.0, std::ceil(stats.lambda / kpt_bound)));

  std::optional<RRSpillStore> spill =
      MakeSpillStore(options, graph_.num_nodes());
  Timer phase_timer;
  NodeSelection selection =
      SelectNodes(*source, options.k, stats.theta,
                  options.memory_budget_bytes, spill ? &*spill : nullptr);
  stats.seconds_node_selection = phase_timer.ElapsedSeconds();

  stats.estimated_spread =
      selection.covered_fraction * static_cast<double>(n);
  stats.rr_memory_bytes = selection.rr_memory_bytes;
  stats.rr_data_bytes = selection.rr_data_bytes;
  static_cast<RrRunStats&>(stats) = selection;  // budget + spill counters
  stats.edges_examined += selection.edges_examined;
  stats.seconds_total = total_timer.ElapsedSeconds();

  result->seeds = std::move(selection.seeds);
  result->stats = stats;
  return Status::OK();
}

}  // namespace timpp
