// Immutable directed graph in CSR form with per-edge propagation
// probabilities, materializing both the forward adjacency (out-arcs, used by
// forward diffusion simulation) and the transpose adjacency (in-arcs, used
// by reverse-reachable-set sampling; the paper calls the transpose G^T).
#ifndef TIMPP_GRAPH_GRAPH_H_
#define TIMPP_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "graph/graph_storage.h"
#include "util/types.h"

namespace timpp {

/// Minimum average constant-probability run length at which
/// SamplerMode::kAuto switches a traversal from per-arc coins to geometric
/// skips: each skip draw costs two log() evaluations, so runs must be long
/// enough to amortize them against the per-arc coin it replaces.
inline constexpr double kSkipRunLengthThreshold = 4.0;

/// Immutable weighted directed graph. Construct via GraphBuilder (resident
/// vectors) or graph_io's OpenGraphImage (read-only mmap of a serialized
/// CSR image); either way the arrays live in a GraphStorage backend and
/// Graph reads them through a GraphView captured at construction, so the
/// accessors below compile to the same span arithmetic for every backend.
///
/// Both adjacency directions are stored because the algorithms in the paper
/// need both: forward Monte-Carlo simulation of a cascade walks out-arcs,
/// while randomized reverse BFS (RR-set generation, Definition 2) walks
/// in-arcs. Arc order within a list follows insertion order of the builder.
///
/// Alongside the arcs the builder materializes *probability runs*: each
/// node's arc list split into maximal stretches of equal probability.
/// Under the paper's §7.1 settings the in-arc lists are single runs
/// (weighted cascade: every in-arc of v has p = 1/indeg(v); uniform: one
/// global p; uniform LT likewise), which lets samplers draw geometric
/// skips per run instead of one Bernoulli coin per arc (SamplerMode::kSkip)
/// — exactly, for any graph, since the split never merges unequal
/// probabilities.
///
/// Copies are cheap: they share the immutable storage backend.
class Graph {
 public:
  Graph() = default;

  /// Adopts a storage backend; the view is captured once here.
  explicit Graph(std::shared_ptr<const GraphStorage> storage)
      : storage_(std::move(storage)), v_(storage_->view()) {}

  /// Number of nodes n. Nodes are densely numbered [0, n).
  NodeId num_nodes() const { return v_.num_nodes; }

  /// Number of directed edges m.
  uint64_t num_edges() const {
    return static_cast<uint64_t>(v_.out_arcs.size());
  }

  /// Out-arcs of `v`: arcs (v -> a.node) with probability a.prob.
  std::span<const Arc> OutArcs(NodeId v) const {
    return {v_.out_arcs.data() + v_.out_offsets[v],
            v_.out_arcs.data() + v_.out_offsets[v + 1]};
  }

  /// In-arcs of `v`: arcs (a.node -> v) with probability a.prob.
  std::span<const Arc> InArcs(NodeId v) const {
    return {v_.in_arcs.data() + v_.in_offsets[v],
            v_.in_arcs.data() + v_.in_offsets[v + 1]};
  }

  uint64_t OutDegree(NodeId v) const {
    return v_.out_offsets[v + 1] - v_.out_offsets[v];
  }

  uint64_t InDegree(NodeId v) const {
    return v_.in_offsets[v + 1] - v_.in_offsets[v];
  }

  /// Sum of in-arc probabilities of `v`. Under the LT interpretation this is
  /// the total incoming weight; a well-formed LT graph has sums <= 1.
  double InProbSum(NodeId v) const {
    double s = 0;
    for (const Arc& a : InArcs(v)) s += a.prob;
    return s;
  }

  /// Ends (exclusive, local to InArcs(v) — i.e. values in (0, InDegree(v)])
  /// of v's constant-probability in-arc runs, in arc order. Run r spans
  /// [ends[r-1] (or 0), ends[r]) and its probability is the probability of
  /// its first arc.
  std::span<const EdgeIndex> InRunEnds(NodeId v) const {
    return {v_.in_run_ends.data() + v_.in_run_offsets[v],
            v_.in_run_ends.data() + v_.in_run_offsets[v + 1]};
  }

  /// As InRunEnds, for the out-arc direction.
  std::span<const EdgeIndex> OutRunEnds(NodeId v) const {
    return {v_.out_run_ends.data() + v_.out_run_offsets[v],
            v_.out_run_ends.data() + v_.out_run_offsets[v + 1]};
  }

  /// Per-run 1 / ln(1-p), aligned with InRunEnds(v) — the precomputed
  /// constant geometric skip draws multiply by (Rng::NextSkip), so the
  /// sampling hot loop pays no log or division per run. Meaningless
  /// (±0 / ±inf) for runs with p >= 1 or p <= 0, which samplers branch
  /// around before drawing.
  std::span<const double> InRunInvLog1mp(NodeId v) const {
    return {v_.in_run_inv_log1mp.data() + v_.in_run_offsets[v],
            v_.in_run_inv_log1mp.data() + v_.in_run_offsets[v + 1]};
  }

  /// As InRunInvLog1mp, for the out-arc direction.
  std::span<const double> OutRunInvLog1mp(NodeId v) const {
    return {v_.out_run_inv_log1mp.data() + v_.out_run_offsets[v],
            v_.out_run_inv_log1mp.data() + v_.out_run_offsets[v + 1]};
  }

  uint64_t num_in_runs() const { return v_.in_run_ends.size(); }
  uint64_t num_out_runs() const { return v_.out_run_ends.size(); }

  /// Mean arcs per in-run (m / #in-runs); 0 on an edgeless graph. 1.0
  /// means every adjacent in-arc pair differs in probability (skip
  /// sampling degenerates to per-arc); indeg-sized values mean whole
  /// lists are single runs (weighted cascade).
  double AvgInRunLength() const {
    return v_.in_run_ends.empty()
               ? 0.0
               : static_cast<double>(v_.in_arcs.size()) /
                     static_cast<double>(v_.in_run_ends.size());
  }

  /// Mean arcs per out-run; see AvgInRunLength.
  double AvgOutRunLength() const {
    return v_.out_run_ends.empty()
               ? 0.0
               : static_cast<double>(v_.out_arcs.size()) /
                     static_cast<double>(v_.out_run_ends.size());
  }

  /// Order-sensitive 64-bit digest of the full graph content: node count,
  /// both adjacency directions (arc targets AND probability bits), and the
  /// constant-probability run metadata. Two Graphs hash equal iff a
  /// sampler walking them makes identical decisions, which is exactly the
  /// identity a reopened graph image must prove — the same edge list
  /// loaded under a different weight model, edge order, or undirected
  /// flag hashes differently. The digest is a function of the view alone,
  /// so resident and mmap backends of the same graph hash identically.
  /// O(n + m).
  uint64_t ContentHash() const;

  /// Heap bytes the storage backend holds resident (Figure 12 accounting —
  /// the run arrays are real resident memory and must be charged). For a
  /// mapped backend this excludes the mapped adjacency; see MappedBytes.
  size_t MemoryBytes() const {
    return storage_ ? storage_->ResidentBytes() : 0;
  }

  /// Bytes served through a read-only file mapping (0 for the resident
  /// backend).
  size_t MappedBytes() const { return storage_ ? storage_->MappedBytes() : 0; }

  /// Storage backend name: "resident" or "mmap" ("none" before adoption).
  const char* storage_kind() const {
    return storage_ ? storage_->kind() : "none";
  }

  /// The raw array view (serialization reads the arrays through this).
  const GraphView& view() const { return v_; }

 private:
  std::shared_ptr<const GraphStorage> storage_;
  GraphView v_;
};

}  // namespace timpp

#endif  // TIMPP_GRAPH_GRAPH_H_
