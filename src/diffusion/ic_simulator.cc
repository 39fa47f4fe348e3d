#include "diffusion/ic_simulator.h"

#include "graph/run_sampling.h"

namespace timpp {

namespace {

/// Queue slots between the node being expanded and the node whose out-arc
/// list is prefetched.
constexpr size_t kPrefetchDistance = 4;

}  // namespace

uint64_t IcSimulator::Simulate(std::span<const NodeId> seeds, Rng& rng,
                               uint32_t max_hops) {
  return SimulateCollect(seeds, rng, nullptr, max_hops);
}

uint64_t IcSimulator::SimulateCollect(std::span<const NodeId> seeds, Rng& rng,
                                      std::vector<NodeId>* activated,
                                      uint32_t max_hops) {
  visited_.NewEpoch();
  queue_.clear();
  if (activated != nullptr) activated->clear();

  uint64_t count = 0;
  for (NodeId s : seeds) {
    if (visited_.VisitIfNew(s)) {
      queue_.push_back(s);
      ++count;
      if (activated != nullptr) activated->push_back(s);
    }
  }

  // BFS over live out-arcs; each arc flips its own coin exactly once, which
  // matches the "activated node gets one chance per outgoing edge" process.
  // Hop bounding tracks the index where the current BFS level ends. In
  // skip mode the live arcs of each constant-probability run are reached
  // by geometric jumps instead of per-arc coins — the same live-arc
  // distribution at O(1 + live) cost per run.
  size_t level_end = queue_.size();
  uint32_t hops = 0;
  for (size_t head = 0; head < queue_.size(); ++head) {
    if (head == level_end) {
      ++hops;
      level_end = queue_.size();
    }
    if (max_hops != 0 && hops >= max_hops) break;
    // The arc list is a cache miss on any graph larger than the cache, and
    // the queue already names the nodes expanded next.
    if (head + kPrefetchDistance < queue_.size()) {
      __builtin_prefetch(graph_.OutArcs(queue_[head + kPrefetchDistance])
                             .data());
    }
    NodeId u = queue_[head];
    const auto arcs = graph_.OutArcs(u);
    const auto try_activate = [&](NodeId w) {
      if (visited_.VisitIfNew(w)) {
        queue_.push_back(w);
        ++count;
        if (activated != nullptr) activated->push_back(w);
      }
    };
    if (use_skip_) {
      SampleLiveArcsInRuns(arcs, graph_.OutRunEnds(u),
                           graph_.OutRunInvLog1mp(u), rng,
                           [&](const Arc& a) { try_activate(a.node); });
    } else {
      // Two passes draw exactly the coins of the one-pass "skip visited
      // targets, flip the rest in arc order" loop. The first keeps the
      // arcs whose target is unvisited, without a branch. Only this list's
      // own coins change `visited_` before the second pass reaches an arc,
      // so re-checking there drops exactly the targets an earlier coin
      // activated (repeated arcs u→v); a self-loop's target is already
      // visited and never kept.
      if (live_.size() < arcs.size()) live_.resize(arcs.size());
      size_t kept = 0;
      for (const Arc& a : arcs) {
        live_[kept] = a;
        kept += !visited_.Visited(a.node);
      }
      for (size_t i = 0; i < kept; ++i) {
        const Arc& a = live_[i];
        if (!visited_.Visited(a.node) && rng.NextBernoulli(a.prob)) {
          try_activate(a.node);
        }
      }
    }
  }
  return count;
}

}  // namespace timpp
