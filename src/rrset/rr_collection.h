// Storage for a batch of RR sets (the paper's R) with the inverted index
// needed by the greedy max-coverage step and exact memory accounting for
// the Figure 12 experiment.
#ifndef TIMPP_RRSET_RR_COLLECTION_H_
#define TIMPP_RRSET_RR_COLLECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/huge_page_allocator.h"
#include "util/types.h"

namespace timpp {

class ThreadPool;

/// Flat, append-only container of RR sets.
///
/// Sets are stored back-to-back in one node array with an offset array
/// (CSR layout). After all sets are added, BuildIndex() materializes the
/// inverted node -> set-ids index used by coverage computations. Adding
/// after BuildIndex() invalidates the index (checked in debug builds via
/// index_built()). The five arrays (offsets, members, widths, index
/// offsets, index sets) allocate through HugePageAllocator: each one of
/// 2 MiB or more lives in its own huge-page-advised mapping.
class RRCollection {
 public:
  explicit RRCollection(NodeId num_nodes) : num_nodes_(num_nodes) {
    offsets_.push_back(0);
  }

  /// Appends one RR set; returns its id. `width` is w(R) from Equation 1.
  RRSetId Add(std::span<const NodeId> nodes, uint64_t width);

  /// Bulk-appends sets [first, first + count) of `src` in order — the
  /// range-copy primitive behind the engine's chunk-ordered shard merge
  /// and the serving layer's shared-prefix reuse (a request's slice of a
  /// shared collection is byte-identical to sampling it fresh). One
  /// memmove per array instead of per-set Add calls. Ranges past
  /// src.num_sets() are clamped. Invalidates the index.
  void AppendRange(const RRCollection& src, size_t first, size_t count);

  /// Bulk-appends sets stored back to back: set i has `sizes[i]` members,
  /// taken in order from `members`, and width `widths[i]`. `sizes` and
  /// `widths` have one entry per set and the sizes must sum to
  /// members.size(). The decode half of rrset/rr_serialization: one copy
  /// per array instead of per-set Add calls. Invalidates the index.
  void AppendPacked(std::span<const NodeId> members,
                    std::span<const uint64_t> sizes,
                    std::span<const uint64_t> widths);

  /// Makes room for `sets` more sets and `nodes` more members. Every
  /// append path grows through this one rule: an array that must grow
  /// gets capacity max(wanted size, 2 · current capacity). Appending up to
  /// a final size S therefore copies fewer than 2·S elements per array,
  /// however the appends are batched, and leaves capacity under 2·S. On a
  /// fresh collection the first reservation is exact.
  void Reserve(size_t sets, size_t nodes);

  /// Drops the set arrays' growth slack (capacity becomes size, so
  /// MemoryBytes equals DataBytes without an index). One copy of each
  /// array that has slack; meant for collections that never grow again.
  void ShrinkToFit();

  /// Bytes of existing set data copied by reallocations of the three set
  /// arrays (offsets, members, widths) since construction: growth on any
  /// append path, including inside Add, plus ShrinkToFit. A pure function
  /// of the append sequence — the machine-independent cost of storing R.
  uint64_t realloc_bytes_copied() const { return realloc_bytes_copied_; }

  /// Number of stored sets (the paper's θ once sampling finishes).
  size_t num_sets() const { return offsets_.size() - 1; }

  /// Total nodes across all sets.
  size_t total_nodes() const { return nodes_.size(); }

  /// Number of nodes the host graph has (index width).
  NodeId num_graph_nodes() const { return num_nodes_; }

  /// Nodes of set `id`.
  std::span<const NodeId> Set(RRSetId id) const {
    return {nodes_.data() + offsets_[id], nodes_.data() + offsets_[id + 1]};
  }

  /// Members of sets [first, last), back to back in set order
  /// (first <= last <= num_sets()).
  std::span<const NodeId> Members(size_t first, size_t last) const {
    return {nodes_.data() + offsets_[first], nodes_.data() + offsets_[last]};
  }

  /// Width w(R) of set `id`.
  uint64_t Width(RRSetId id) const { return widths_[id]; }

  /// Start offset of set `id` into the flat node array; `id` may equal
  /// num_sets() (the end offset), so a range's node count is
  /// Offset(b) - Offset(a).
  EdgeIndex Offset(size_t id) const { return offsets_[id]; }

  /// Sum of widths over all sets.
  uint64_t TotalWidth() const { return total_width_; }

  /// Builds (or rebuilds) the inverted index: a counting sort of the
  /// members by node, O(total_nodes + num_graph_nodes). Each node's list
  /// is ascending by set id. With `pool` (borrowed, idle; nullptr = serial)
  /// the sets split into one contiguous range of about equal member count
  /// per pool thread: each task counts its range per node, one pass over
  /// the nodes turns the counts into write cursors (task t's part of a
  /// node's list follows the parts of the tasks before it), and each task
  /// scatters its range into its own disjoint slots. The arrays equal the
  /// serial build's byte for byte. The cursors take tasks · (n + 1) words,
  /// so the build uses fewer tasks, down to one, rather than let them
  /// outnumber the members.
  void BuildIndex(ThreadPool* pool = nullptr);
  bool index_built() const { return index_built_; }

  /// Releases the inverted index (sets untouched). Budgeted phases that
  /// alternate indexed greedy solves with further sampling call this
  /// before any DataBytes-vs-budget comparison: a stale index would
  /// otherwise be double-charged (once as resident bytes, once as the
  /// rebuild estimate) and latch the budget spuriously.
  void DropIndex();

  /// Ids of the sets containing node `v`. Requires BuildIndex().
  std::span<const RRSetId> SetsContaining(NodeId v) const {
    return {index_sets_.data() + index_offsets_[v],
            index_sets_.data() + index_offsets_[v + 1]};
  }

  /// Number of sets containing `v` (the initial greedy coverage count).
  uint64_t CoverageCount(NodeId v) const {
    return index_offsets_[v + 1] - index_offsets_[v];
  }

  /// Fraction of sets that contain at least one node of `seeds` — the
  /// paper's F_R(S). O(Σ |sets containing seeds|) via the index.
  double CoveredFraction(std::span<const NodeId> seeds) const;

  /// Bytes of set storage plus index (Figure 12's memory metric).
  /// Capacity-based: counts what the allocator holds, including growth
  /// slack, so it can read up to 2× DataBytes (see Reserve). An array of
  /// 2 MiB or more sits in its own mapping (util/huge_page_allocator.h),
  /// counted by capacity too, though the kernel makes it resident only as
  /// it is touched, one huge-page extent (2 MiB) at a time; the mapping's
  /// page-rounded tail is not counted.
  size_t MemoryBytes() const;

  /// Bytes actually filled with data (capacities excluded). This is
  /// the basis of OverMemoryBudget: unlike MemoryBytes it is a pure
  /// function of the stored sets, never of the allocation pattern, so
  /// budget stops land at the same set regardless of how the collection
  /// was filled (per-set Add vs bulk AppendRange; sequential vs parallel
  /// engine paths).
  size_t DataBytes() const;

  /// Memory-budget hook: a soft cap on DataBytes() consulted by producers
  /// that can stop early. The sampling engine checks it at its fixed,
  /// thread-count-independent batch boundaries, so the cap may be
  /// overshot by up to one batch. 0 (the default) means unlimited. The
  /// collection itself never rejects an Add — enforcement is the
  /// producer's job, which keeps append hot paths branch-free.
  void set_memory_budget(size_t bytes) { memory_budget_ = bytes; }
  size_t memory_budget() const { return memory_budget_; }
  bool OverMemoryBudget() const {
    return memory_budget_ != 0 && DataBytes() > memory_budget_;
  }

  /// Drops every set with id >= `num_sets`, keeping the prefix. Used by
  /// budgeted selection to fall back to the largest under-budget prefix
  /// after the sampling engine's batch-granular budget stop overshoots;
  /// the dropped sets are recoverable exactly via per-index regeneration.
  /// Invalidates the index. Capacity is not released (DataBytes shrinks,
  /// MemoryBytes does not).
  void TruncateTo(size_t num_sets);

  /// Releases everything (budget excepted).
  void Clear();

 private:
  template <typename T>
  using Array = std::vector<T, HugePageAllocator<T>>;

  NodeId num_nodes_;
  size_t memory_budget_ = 0;
  Array<EdgeIndex> offsets_;   // per-set start into nodes_
  Array<NodeId> nodes_;        // concatenated set members
  Array<uint64_t> widths_;     // per-set w(R)
  uint64_t total_width_ = 0;
  uint64_t realloc_bytes_copied_ = 0;

  bool index_built_ = false;
  Array<EdgeIndex> index_offsets_;  // per-node start into index_sets_
  Array<RRSetId> index_sets_;
};

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_COLLECTION_H_
