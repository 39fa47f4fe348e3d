// Compact binary format for RR-set shards — the spill tier's chunk format
// (rrset/rr_spill.h), written and read back by the same process.
//
// A shard is a contiguous run of RR sets from one engine's global index
// stream, together with each set's width w(R) and edges-examined count, so
// the reader can merge it with RRCollection::AppendRange and report the
// same accounting (edges_examined, traversal_cost, TotalWidth) a fresh
// fill of the same indices would have produced. The format is versioned
// and self-validating: a truncated buffer, an inconsistent total, or a
// node id outside the graph fails with a clear Status instead of poisoning
// the collection.
//
// Layout (all integers native-endian; spill files are scratch written and
// read on one host, never across architectures):
//   u32 magic 'RRSH' | u16 version | u16 flags(0)
//   u64 num_sets | u64 total_nodes | u64 total_edges
//   u64 node_count[num_sets]
//   u64 width[num_sets]
//   u64 edges_examined[num_sets]
//   u32 node[total_nodes]          (set members, back to back, set order)
#ifndef TIMPP_RRSET_RR_SERIALIZATION_H_
#define TIMPP_RRSET_RR_SERIALIZATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rrset/rr_collection.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Header totals of a decoded shard (edge accounting without walking it).
struct RRShardInfo {
  uint64_t num_sets = 0;
  uint64_t total_nodes = 0;
  uint64_t total_edges = 0;
};

/// Serializes sets [first, first + count) of `sets` (clamped to
/// sets.num_sets()) with their aligned per-set `edges` counts, appending to
/// `*out`. `edges` must hold one entry per set of `sets`.
void SerializeRRShard(const RRCollection& sets, std::span<const uint64_t> edges,
                      size_t first, size_t count, std::string* out);

/// Whole-collection convenience.
inline void SerializeRRShard(const RRCollection& sets,
                             std::span<const uint64_t> edges,
                             std::string* out) {
  SerializeRRShard(sets, edges, 0, sets.num_sets(), out);
}

/// Decodes a shard produced by SerializeRRShard, appending its sets to
/// `*sets` (via the same per-set widths) and its per-set edge counts to
/// `*edges`. Every node id is validated against `num_graph_nodes`, and the
/// buffer must be exactly one well-formed shard. On error nothing is
/// appended. `info` (optional) receives the header totals.
Status DeserializeRRShard(std::string_view bytes, NodeId num_graph_nodes,
                          RRCollection* sets, std::vector<uint64_t>* edges,
                          RRShardInfo* info = nullptr);

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_SERIALIZATION_H_
