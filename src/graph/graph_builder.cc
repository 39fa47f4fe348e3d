#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

namespace timpp {

void GraphBuilder::ReserveNodes(NodeId n) {
  num_nodes_ = std::max(num_nodes_, n);
}

void GraphBuilder::AddEdge(NodeId from, NodeId to, float prob) {
  edges_.push_back(RawEdge{from, to, prob});
  num_nodes_ = std::max(num_nodes_, static_cast<NodeId>(std::max(from, to) + 1));
}

void GraphBuilder::AddUndirectedEdge(NodeId u, NodeId v, float prob) {
  AddEdge(u, v, prob);
  AddEdge(v, u, prob);
}

void GraphBuilder::DeduplicateEdges() {
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const RawEdge& a, const RawEdge& b) {
                     if (a.from != b.from) return a.from < b.from;
                     return a.to < b.to;
                   });
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const RawEdge& a, const RawEdge& b) {
                             return a.from == b.from && a.to == b.to;
                           }),
               edges_.end());
}

void GraphBuilder::RemoveSelfLoops() {
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [](const RawEdge& e) { return e.from == e.to; }),
               edges_.end());
}

Status GraphBuilder::Build(Graph* out) const {
  const NodeId n = num_nodes_;
  // A count of kInvalidNode wraps the n + 1 offsets below, and AddEdge's
  // count wraps past an endpoint of kInvalidNode, leaving it out of range.
  if (n == kInvalidNode) {
    return Status::InvalidArgument("node count " + std::to_string(n) +
                                   " reaches the reserved id kInvalidNode");
  }
  for (const RawEdge& e : edges_) {
    if (e.from >= n || e.to >= n) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.from) + " -> " + std::to_string(e.to) +
          ") has an endpoint outside [0, " + std::to_string(n) + ")");
    }
    if (!std::isfinite(e.prob) || e.prob < 0.0f || e.prob > 1.0f) {
      return Status::InvalidArgument(
          "edge (" + std::to_string(e.from) + " -> " + std::to_string(e.to) +
          ") has probability outside [0, 1]: " + std::to_string(e.prob));
    }
  }

  const size_t m = edges_.size();

  GraphArrays a;
  a.num_nodes = n;
  a.out_offsets.assign(n + 1, 0);
  a.in_offsets.assign(n + 1, 0);
  a.out_arcs.resize(m);
  a.in_arcs.resize(m);

  // Counting sort into both CSR directions.
  for (const RawEdge& e : edges_) {
    ++a.out_offsets[e.from + 1];
    ++a.in_offsets[e.to + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    a.out_offsets[v + 1] += a.out_offsets[v];
    a.in_offsets[v + 1] += a.in_offsets[v];
  }
  std::vector<EdgeIndex> out_fill(a.out_offsets.begin(),
                                  a.out_offsets.end() - 1);
  std::vector<EdgeIndex> in_fill(a.in_offsets.begin(),
                                 a.in_offsets.end() - 1);
  for (const RawEdge& e : edges_) {
    a.out_arcs[out_fill[e.from]++] = Arc{e.to, e.prob};
    a.in_arcs[in_fill[e.to]++] = Arc{e.from, e.prob};
  }

  // Probability runs: split every node's arc list into maximal stretches
  // of equal probability (exact float comparison — only byte-identical
  // probabilities may share a geometric-skip stream). O(m), done for both
  // directions so reverse sampling and forward simulation can both skip.
  a.DeriveRuns();

  *out = Graph(std::make_shared<OwnedGraphStorage>(std::move(a)));
  return Status::OK();
}

}  // namespace timpp
