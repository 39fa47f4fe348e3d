#include "core/imm.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/node_selector.h"
#include "core/parameters.h"
#include "engine/phase_cache.h"
#include "engine/sample_source.h"
#include "rrset/rr_spill.h"
#include "util/alias_table.h"
#include "util/math.h"
#include "util/timer.h"

namespace timpp {

Status RunImm(const Graph& graph, const ImmOptions& options,
              ImmResult* result) {
  return RunImm(graph, options, SolveContext(), result);
}

Status RunImm(const Graph& graph, const ImmOptions& options,
              const SolveContext& context, ImmResult* result) {
  TIMPP_RETURN_NOT_OK(ValidateRrRun(graph, options.k, options.epsilon,
                                    options.ell, options, context));
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

  const double ell = options.ell * (1.0 + std::log(2.0) / ln_n);

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

  std::optional<OwnedSource> owned;
  SampleSource* source = context.source;
  if (source == nullptr) {
    const AliasTable* roots =
        options.node_weights != nullptr ? &root_dist : nullptr;
    source = &owned.emplace(graph, options, roots).source;
  }

  Timer phase_timer;
  const size_t budget = options.memory_budget_bytes;
  const uint64_t stream_start = source->position();

  // One spill store serves both phases (chunks append in increasing index
  // order; the gap between the phases' ranges is fine).
  std::optional<RRSpillStore> spill_store =
      MakeSpillStore(options, graph.num_nodes());
  RRSpillStore* spill = spill_store ? &*spill_store : nullptr;
  // Budget and spill counters sum over every selection of both phases.
  const auto account = [&stats](const NodeSelection& selection) {
    stats.hit_memory_budget |= selection.hit_memory_budget;
    stats.regeneration_passes += selection.regeneration_passes;
    stats.sets_spill_read += selection.sets_spill_read;
    stats.rr_sets_spilled += selection.rr_sets_spilled;
  };

  // The LB memo only covers a stream consumed from index 0 (how every run
  // starts).
  PhaseCache* memo = (stream_start == 0 && options.node_weights == nullptr)
                         ? context.phase_cache
                         : nullptr;

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
    // Every iteration grows one prefix from θ_{i-1} to θ_i sets. Scoped to
    // the search, so its storage is released before the selection phase.
    ResidentPrefix sampling(graph.num_nodes(), stream_start, budget);
    const int max_iterations = std::max(1, static_cast<int>(log2_n) - 1);
    for (int i = 1; i <= max_iterations; ++i) {
      const double x_i = n / std::pow(2.0, i);
      TIMPP_RETURN_NOT_OK(CheckSampleSize(std::ceil(stats.lambda_prime / x_i),
                                          "IMM's theta_i = lambda'/x_i"));
      const uint64_t theta_i = static_cast<uint64_t>(
          std::max(1.0, std::ceil(stats.lambda_prime / x_i)));
      const NodeSelection selection =
          SelectNodes(*source, &sampling, options.k, theta_i, spill);
      account(selection);
      sampling_target = theta_i;
      stats.sampling_iterations = i;
      if (n * selection.covered_fraction >= (1.0 + eps_prime) * x_i) {
        lb = n * selection.covered_fraction / (1.0 + eps_prime);
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
  NodeSelection selection =
      SelectNodes(*source, options.k, stats.theta, budget, spill);
  account(selection);
  stats.rr_sets_retained = selection.rr_sets_retained;
  stats.rr_data_bytes = selection.rr_data_bytes;
  stats.rr_memory_bytes = selection.rr_memory_bytes;
  stats.spill_bytes_written = selection.spill_bytes_written;
  stats.estimated_spread = n * selection.covered_fraction;
  stats.seconds_selection = phase_timer.ElapsedSeconds();
  stats.seconds_total = total_timer.ElapsedSeconds();

  result->seeds = std::move(selection.seeds);
  result->stats = stats;
  return Status::OK();
}

}  // namespace timpp
