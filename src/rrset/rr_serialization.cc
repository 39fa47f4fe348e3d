#include "rrset/rr_serialization.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace timpp {

namespace {

constexpr uint32_t kMagic = 0x48535252u;  // "RRSH" little-endian
constexpr uint16_t kVersion = 1;

// Guard against a corrupt header describing more data than any real shard
// could hold (the engine's batches are a few thousand sets): 1 Gi entries
// would already be a >4 GiB payload.
constexpr uint64_t kMaxReasonableEntries = uint64_t{1} << 30;

template <typename T>
void AppendRaw(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked cursor over the input buffer.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Borrows `count` items of type T from the buffer without copying.
  template <typename T>
  bool ReadArray(uint64_t count, const T** out) {
    if (count > (bytes_.size() - pos_) / sizeof(T)) return false;
    *out = reinterpret_cast<const T*>(bytes_.data() + pos_);
    pos_ += count * sizeof(T);
    return true;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

void SerializeRRShard(const RRCollection& sets, std::span<const uint64_t> edges,
                      size_t first, size_t count, std::string* out) {
  first = std::min(first, sets.num_sets());
  count = std::min(count, sets.num_sets() - first);

  uint64_t total_nodes = 0;
  uint64_t total_edges = 0;
  for (size_t i = first; i < first + count; ++i) {
    total_nodes += sets.Set(static_cast<RRSetId>(i)).size();
    total_edges += edges[i];
  }

  out->reserve(out->size() + 8 + 3 * 8 + count * 24 + total_nodes * 4);
  AppendRaw(out, kMagic);
  AppendRaw(out, kVersion);
  AppendRaw(out, uint16_t{0});  // flags
  AppendRaw(out, static_cast<uint64_t>(count));
  AppendRaw(out, total_nodes);
  AppendRaw(out, total_edges);
  for (size_t i = first; i < first + count; ++i) {
    AppendRaw(out, static_cast<uint64_t>(
                       sets.Set(static_cast<RRSetId>(i)).size()));
  }
  for (size_t i = first; i < first + count; ++i) {
    AppendRaw(out, sets.Width(static_cast<RRSetId>(i)));
  }
  for (size_t i = first; i < first + count; ++i) AppendRaw(out, edges[i]);
  for (size_t i = first; i < first + count; ++i) {
    const auto set = sets.Set(static_cast<RRSetId>(i));
    out->append(reinterpret_cast<const char*>(set.data()),
                set.size() * sizeof(NodeId));
  }
}

Status DeserializeRRShard(std::string_view bytes, NodeId num_graph_nodes,
                          RRCollection* sets, std::vector<uint64_t>* edges,
                          RRShardInfo* info) {
  Reader reader(bytes);
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t flags = 0;
  if (!reader.Read(&magic) || !reader.Read(&version) || !reader.Read(&flags)) {
    return Status::Corruption("RR shard: truncated header");
  }
  if (magic != kMagic) return Status::Corruption("RR shard: bad magic");
  if (version != kVersion) {
    return Status::Corruption("RR shard: unsupported version " +
                              std::to_string(version));
  }
  if (flags != 0) {
    return Status::Corruption("RR shard: nonzero flags " +
                              std::to_string(flags));
  }

  RRShardInfo header;
  if (!reader.Read(&header.num_sets) || !reader.Read(&header.total_nodes) ||
      !reader.Read(&header.total_edges)) {
    return Status::Corruption("RR shard: truncated header totals");
  }
  if (header.num_sets > kMaxReasonableEntries ||
      header.total_nodes > kMaxReasonableEntries) {
    return Status::Corruption("RR shard: implausible header totals");
  }

  const uint64_t* node_counts = nullptr;
  const uint64_t* widths = nullptr;
  const uint64_t* set_edges = nullptr;
  const NodeId* nodes = nullptr;
  if (!reader.ReadArray(header.num_sets, &node_counts) ||
      !reader.ReadArray(header.num_sets, &widths) ||
      !reader.ReadArray(header.num_sets, &set_edges) ||
      !reader.ReadArray(header.total_nodes, &nodes)) {
    return Status::Corruption("RR shard: truncated body");
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("RR shard: trailing bytes after body");
  }

  // Validate everything before touching the output: a failed shard must
  // not leave a half-appended collection behind.
  uint64_t declared_nodes = 0;
  uint64_t declared_edges = 0;
  for (uint64_t i = 0; i < header.num_sets; ++i) {
    // Bounding each count first keeps the sum below 2^60: no wrap-around
    // can forge a total that matches.
    if (node_counts[i] > header.total_nodes) {
      return Status::Corruption("RR shard: per-set node count exceeds "
                                "total_nodes");
    }
    declared_nodes += node_counts[i];
    declared_edges += set_edges[i];
  }
  if (declared_nodes != header.total_nodes) {
    return Status::Corruption("RR shard: per-set node counts disagree with "
                              "total_nodes");
  }
  if (declared_edges != header.total_edges) {
    return Status::Corruption("RR shard: per-set edge counts disagree with "
                              "total_edges");
  }
  for (uint64_t i = 0; i < header.total_nodes; ++i) {
    if (nodes[i] >= num_graph_nodes) {
      return Status::Corruption("RR shard: node id " +
                                std::to_string(nodes[i]) +
                                " out of range (n=" +
                                std::to_string(num_graph_nodes) + ")");
    }
  }

  sets->AppendPacked({nodes, header.total_nodes},
                     {node_counts, header.num_sets},
                     {widths, header.num_sets});
  edges->insert(edges->end(), set_edges, set_edges + header.num_sets);
  if (info != nullptr) *info = header;
  return Status::OK();
}

}  // namespace timpp
