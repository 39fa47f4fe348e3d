#include "baselines/celf_greedy.h"

#include <algorithm>
#include <queue>
#include <string>

#include "diffusion/spread_estimator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace timpp {

namespace {

// Monte-Carlo spread oracle with its own RNG stream; every call advances
// the stream deterministically.
class SpreadOracle {
 public:
  explicit SpreadOracle(const CelfOptions& options)
      : rng_(options.seed), evaluations_(0) {
    estimator_options_.num_samples = options.num_mc_samples;
    estimator_options_.model = options.model;
    estimator_options_.custom_model = options.custom_model;
    estimator_options_.sampler_mode = options.sampler_mode;
  }

  double Estimate(const Graph& graph, const std::vector<NodeId>& seeds) {
    ++evaluations_;
    SpreadEstimator estimator(graph, estimator_options_);
    return estimator.Estimate(seeds, rng_.Next());
  }

  uint64_t evaluations() const { return evaluations_; }

 private:
  SpreadEstimatorOptions estimator_options_;
  Rng rng_;
  uint64_t evaluations_;
};

Status RunPlainGreedy(const Graph& graph, int k, std::vector<NodeId>* seeds,
                      CelfStats* stats, SpreadOracle* oracle) {
  const NodeId n = graph.num_nodes();
  std::vector<NodeId> current;
  std::vector<char> selected(n, 0);
  double current_spread = 0.0;

  for (int round = 0; round < k; ++round) {
    NodeId best = kInvalidNode;
    double best_spread = -1.0;
    std::vector<NodeId> candidate = current;
    candidate.push_back(0);
    for (NodeId v = 0; v < n; ++v) {
      if (selected[v]) continue;
      candidate.back() = v;
      double s = oracle->Estimate(graph, candidate);
      if (s > best_spread) {
        best_spread = s;
        best = v;
      }
    }
    if (best == kInvalidNode) break;
    selected[best] = 1;
    current.push_back(best);
    current_spread = best_spread;
    if (stats != nullptr) stats->spread_after_round.push_back(current_spread);
  }
  *seeds = std::move(current);
  return Status::OK();
}

// CELF / CELF++. Entries carry the round in which their marginal gain was
// last refreshed; submodularity guarantees gains only shrink, so an entry
// refreshed in the current round that sits on top of the heap is the true
// argmax. CELF++ additionally caches mg2 = Δ(u | S ∪ {best_seen}): if the
// node that ends up selected this round is exactly the `prev_best` the
// entry was evaluated against, next round's refresh is free.
struct QueueEntry {
  double gain;       // Δ(u | S) as of round `round`
  double gain2;      // Δ(u | S ∪ {prev_best}) — CELF++ only
  NodeId node;
  NodeId prev_best;  // best node seen when gain2 was computed
  int round;         // round in which `gain` was computed
  bool operator<(const QueueEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;
  }
};

Status RunLazyGreedy(const Graph& graph, const CelfOptions& options, int k,
                     std::vector<NodeId>* seeds, CelfStats* stats,
                     SpreadOracle* oracle) {
  const bool plus_plus = options.variant == GreedyVariant::kCelfPlusPlus;
  const NodeId n = graph.num_nodes();

  std::vector<NodeId> current;
  double current_spread = 0.0;

  // Round 0: evaluate every singleton once.
  std::priority_queue<QueueEntry> heap;
  {
    std::vector<NodeId> single(1);
    for (NodeId v = 0; v < n; ++v) {
      single[0] = v;
      double s = oracle->Estimate(graph, single);
      heap.push(QueueEntry{s, 0.0, v, kInvalidNode, 0});
    }
  }

  std::vector<NodeId> scratch;
  NodeId last_selected = kInvalidNode;

  for (int round = 0; round < k && !heap.empty();) {
    QueueEntry top = heap.top();
    heap.pop();

    if (top.round == round) {
      // Fresh for this round: select it.
      current.push_back(top.node);
      current_spread += top.gain;
      last_selected = top.node;
      if (stats != nullptr) stats->spread_after_round.push_back(current_spread);
      ++round;
      continue;
    }

    if (plus_plus && top.prev_best == last_selected &&
        top.prev_best != kInvalidNode) {
      // CELF++ shortcut: gain2 was computed against exactly the set we now
      // have, so it becomes the fresh gain without a new simulation.
      top.gain = top.gain2;
      top.round = round;
      top.prev_best = kInvalidNode;
      heap.push(top);
      continue;
    }

    // Re-evaluate Δ(u | S); CELF++ also refreshes gain2 against the current
    // heap top (the best candidate seen so far this round).
    scratch = current;
    scratch.push_back(top.node);
    double with_u = oracle->Estimate(graph, scratch);
    top.gain = with_u - current_spread;
    top.round = round;
    if (plus_plus && !heap.empty()) {
      const QueueEntry& best_seen = heap.top();
      scratch.push_back(best_seen.node);
      double with_both = oracle->Estimate(graph, scratch);
      top.gain2 = with_both - (current_spread + best_seen.gain);
      top.prev_best = best_seen.node;
    } else {
      top.prev_best = kInvalidNode;
    }
    heap.push(top);
  }

  *seeds = std::move(current);
  return Status::OK();
}

}  // namespace

Status RunCelfGreedy(const Graph& graph, const CelfOptions& options, int k,
                     std::vector<NodeId>* seeds, CelfStats* stats) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  if (k < 1 || static_cast<uint64_t>(k) > graph.num_nodes()) {
    return Status::InvalidArgument("k must be in [1, n], got " +
                                   std::to_string(k));
  }
  if (options.num_mc_samples == 0) {
    return Status::InvalidArgument("num_mc_samples must be positive");
  }
  if (options.model == DiffusionModel::kTriggering &&
      options.custom_model == nullptr) {
    return Status::InvalidArgument(
        "model == kTriggering requires custom_model");
  }

  Timer timer;
  SpreadOracle oracle(options);
  Status status;
  if (options.variant == GreedyVariant::kPlain) {
    status = RunPlainGreedy(graph, k, seeds, stats, &oracle);
  } else {
    status = RunLazyGreedy(graph, options, k, seeds, stats, &oracle);
  }
  if (stats != nullptr) {
    stats->seconds_total = timer.ElapsedSeconds();
    stats->spread_evaluations = oracle.evaluations();
  }
  return status;
}

}  // namespace timpp
