#include "diffusion/spread_estimator.h"

#include <thread>
#include <vector>

#include "diffusion/ic_simulator.h"
#include "diffusion/lt_simulator.h"
#include "util/rng.h"

namespace timpp {

double SpreadEstimator::EstimateSingleThread(std::span<const NodeId> seeds,
                                             uint64_t seed,
                                             uint64_t samples) const {
  Rng rng(seed);
  if (samples == 0) return 0.0;

  // Weighted spread: collect activations and sum their weights, through
  // the one simulator the model actually needs. IC has a native
  // collecting simulator; LT/triggering cascade sets are recovered
  // through the triggering adapters (distribution-identical for LT by
  // Lemma 9) rather than duplicating the threshold level loop.
  if (options_.node_weights != nullptr) {
    const std::vector<double>& w = *options_.node_weights;
    double total_weight = 0.0;
    std::vector<NodeId> activated;
    if (options_.model == DiffusionModel::kIC) {
      IcSimulator ic(graph_, options_.sampler_mode);
      for (uint64_t i = 0; i < samples; ++i) {
        ic.SimulateCollect(seeds, rng, &activated, options_.max_hops);
        for (NodeId v : activated) total_weight += w[v];
      }
    } else {
      LtTriggeringModel lt_model;
      const TriggeringModel* model = options_.model == DiffusionModel::kLT
                                         ? &lt_model
                                         : options_.custom_model;
      TriggeringSimulator trig(graph_,
                               model != nullptr
                                   ? *model
                                   : static_cast<const TriggeringModel&>(
                                         lt_model));
      for (uint64_t i = 0; i < samples; ++i) {
        trig.SimulateCollect(seeds, rng, &activated, options_.max_hops);
        for (NodeId v : activated) total_weight += w[v];
      }
    }
    return total_weight / static_cast<double>(samples);
  }

  uint64_t total = 0;
  switch (options_.model) {
    case DiffusionModel::kIC: {
      IcSimulator sim(graph_, options_.sampler_mode);
      for (uint64_t i = 0; i < samples; ++i) {
        total += sim.Simulate(seeds, rng, options_.max_hops);
      }
      break;
    }
    case DiffusionModel::kLT: {
      LtSimulator sim(graph_);
      for (uint64_t i = 0; i < samples; ++i) {
        total += sim.Simulate(seeds, rng, options_.max_hops);
      }
      break;
    }
    case DiffusionModel::kTriggering: {
      TriggeringSimulator sim(graph_, *options_.custom_model);
      for (uint64_t i = 0; i < samples; ++i) {
        total += sim.Simulate(seeds, rng, options_.max_hops);
      }
      break;
    }
  }
  return static_cast<double>(total) / static_cast<double>(samples);
}

double SpreadEstimator::Estimate(std::span<const NodeId> seeds,
                                 uint64_t seed) const {
  const uint64_t samples = options_.num_samples;
  const unsigned threads = std::max(1u, options_.num_threads);
  if (threads == 1 || samples < 2 * threads) {
    return EstimateSingleThread(seeds, seed, samples);
  }

  // Split the sample budget; fork one deterministic RNG stream per worker.
  Rng master(seed);
  std::vector<uint64_t> worker_seeds(threads);
  for (auto& s : worker_seeds) s = master.Next();

  std::vector<double> partial(threads, 0.0);
  std::vector<uint64_t> counts(threads, samples / threads);
  counts[0] += samples % threads;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      partial[t] =
          EstimateSingleThread(seeds, worker_seeds[t], counts[t]) *
          static_cast<double>(counts[t]);
    });
  }
  for (auto& w : workers) w.join();

  double total = 0.0;
  for (double p : partial) total += p;
  return total / static_cast<double>(samples);
}

double VerifySpread(const Graph& graph, std::span<const NodeId> seeds,
                    const VerifySpreadOptions& options) {
  SpreadEstimatorOptions est;
  est.num_samples = options.num_samples;
  est.num_threads = options.num_threads;
  est.model = options.model;
  est.custom_model = options.custom_model;
  est.max_hops = options.max_hops;
  est.node_weights = options.node_weights;
  return SpreadEstimator(graph, est).Estimate(seeds, options.seed);
}

}  // namespace timpp
