#include "baselines/irie.h"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "diffusion/batched_simulator.h"
#include "diffusion/ic_simulator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace timpp {

namespace {

// One IR fixed-point solve: rank(u) = damp(u)·(1 + α·Σ p(u,v)·rank(v)).
// `damp` is (1 - AP(u|S)); all-ones before any seed exists.
void SolveRanks(const Graph& graph, double alpha, int iterations,
                const std::vector<double>& damp, std::vector<double>* rank,
                uint64_t* sweeps) {
  const NodeId n = graph.num_nodes();
  std::vector<double> next(n);
  std::fill(rank->begin(), rank->end(), 1.0);
  for (int it = 0; it < iterations; ++it) {
    for (NodeId u = 0; u < n; ++u) {
      double acc = 0.0;
      for (const Arc& a : graph.OutArcs(u)) {
        acc += static_cast<double>(a.prob) * (*rank)[a.node];
      }
      next[u] = damp[u] * (1.0 + alpha * acc);
    }
    rank->swap(next);
    ++(*sweeps);
  }
}

// Estimates AP(u|S) — the probability node u is activated by seed set S —
// by averaging `samples` IC cascades. With bitmap batching, 64 cascades
// share each traversal and a node's hit count grows by the popcount of
// its activation lane mask (plus a scalar tail for samples mod 64).
void EstimateActivationProbability(const Graph& graph,
                                   const std::vector<NodeId>& seeds,
                                   uint64_t samples, SamplerMode sampler_mode,
                                   McBatchMode mc_batch, Rng& rng,
                                   std::vector<double>* ap) {
  const NodeId n = graph.num_nodes();
  std::vector<uint32_t> hits(n, 0);
  uint64_t remaining = samples;
  constexpr uint64_t kLanes = BatchedIcSimulator::kMaxLanes;
  if (mc_batch != McBatchMode::kScalar && remaining >= kLanes) {
    BatchedIcSimulator batched(graph);
    std::vector<LaneActivation> events;
    for (; remaining >= kLanes; remaining -= kLanes) {
      batched.SimulateBatchCollect(seeds, rng, &events);
      for (const LaneActivation& e : events) {
        hits[e.node] += static_cast<uint32_t>(std::popcount(e.lanes));
      }
    }
  }
  if (remaining > 0) {
    IcSimulator sim(graph, sampler_mode);
    std::vector<NodeId> activated;
    for (uint64_t i = 0; i < remaining; ++i) {
      sim.SimulateCollect(seeds, rng, &activated);
      for (NodeId v : activated) ++hits[v];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    (*ap)[v] = static_cast<double>(hits[v]) / static_cast<double>(samples);
  }
}

}  // namespace

Status RunIrie(const Graph& graph, const IrieOptions& options, int k,
               std::vector<NodeId>* seeds, IrieStats* stats) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  if (k < 1 || static_cast<uint64_t>(k) > n) {
    return Status::InvalidArgument("k must be in [1, n], got " +
                                   std::to_string(k));
  }
  if (!(options.alpha > 0.0) || options.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }

  Timer timer;
  Rng rng(options.seed);

  std::vector<double> rank(n, 1.0);
  std::vector<double> damp(n, 1.0);
  std::vector<double> ap(n, 0.0);
  std::vector<char> selected(n, 0);
  std::vector<NodeId> chosen;
  uint64_t sweeps = 0;

  for (int round = 0; round < k; ++round) {
    SolveRanks(graph, options.alpha, options.rank_iterations, damp, &rank,
               &sweeps);

    NodeId best = kInvalidNode;
    double best_rank = -1.0;
    for (NodeId v = 0; v < n; ++v) {
      if (selected[v]) continue;
      if (rank[v] > best_rank) {
        best_rank = rank[v];
        best = v;
      }
    }
    if (best == kInvalidNode) break;
    selected[best] = 1;
    chosen.push_back(best);

    if (round + 1 < k) {
      // IE step: refresh AP(·|S) and damp ranks for the next round.
      EstimateActivationProbability(graph, chosen, options.ap_samples,
                                    options.sampler_mode, options.mc_batch,
                                    rng, &ap);
      for (NodeId v = 0; v < n; ++v) {
        damp[v] = selected[v] ? 0.0 : 1.0 - ap[v];
      }
    }
  }

  *seeds = std::move(chosen);
  if (stats != nullptr) {
    stats->seconds_total = timer.ElapsedSeconds();
    stats->rank_sweeps = sweeps;
  }
  return Status::OK();
}

}  // namespace timpp
