// Mutable edge accumulator that produces immutable CSR Graphs.
#ifndef TIMPP_GRAPH_GRAPH_BUILDER_H_
#define TIMPP_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "graph/graph.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// A raw directed edge with its propagation probability.
struct RawEdge {
  NodeId from;
  NodeId to;
  float prob;
};

/// Accumulates edges, then freezes them into a Graph.
///
/// Usage:
///   GraphBuilder b;
///   b.AddEdge(0, 1, 0.5);
///   b.AddUndirectedEdge(1, 2, 0.1);   // inserts both arcs
///   AssignWeightedCascade(&b);        // optional weight model pass
///   Graph g;
///   Status s = b.Build(&g);
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-declares at least `n` nodes (ids [0, n) exist even if isolated).
  void ReserveNodes(NodeId n);

  /// Pre-allocates storage for `m` edges.
  void ReserveEdges(size_t m) { edges_.reserve(m); }

  /// Adds directed edge from -> to with probability `prob`.
  void AddEdge(NodeId from, NodeId to, float prob = 1.0f);

  /// Adds both directions with the same probability.
  void AddUndirectedEdge(NodeId u, NodeId v, float prob = 1.0f);

  /// Number of nodes implied so far (max endpoint + 1, or ReserveNodes).
  NodeId num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }

  /// Mutable access for weight-model passes (graph/weight_models.h).
  std::vector<RawEdge>& edges() { return edges_; }
  const std::vector<RawEdge>& edges() const { return edges_; }

  /// Removes exact duplicate (from, to) pairs, keeping the first occurrence.
  /// Parallel edges are otherwise legal (the IC model treats each as an
  /// independent activation chance).
  void DeduplicateEdges();

  /// Removes self-loops (u -> u); they never affect spread (a seed is
  /// already active; a non-seed cannot activate itself).
  void RemoveSelfLoops();

  /// Freezes into `*out`. Fails with InvalidArgument if any probability is
  /// outside [0, 1] or not finite, if the node count is kInvalidNode, or if
  /// an endpoint is not below the node count (AddEdge's count wraps past an
  /// endpoint of kInvalidNode). The builder remains reusable.
  Status Build(Graph* out) const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<RawEdge> edges_;
};

}  // namespace timpp

#endif  // TIMPP_GRAPH_GRAPH_BUILDER_H_
