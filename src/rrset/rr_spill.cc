#include "rrset/rr_spill.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "rrset/rr_serialization.h"

namespace timpp {

namespace {

/// Distinguishes stores within one process; combined with the pid it makes
/// the chunk subdirectory unique across concurrent runs sharing a parent
/// spill directory.
std::atomic<uint64_t> g_store_counter{0};

/// Hard ceiling on readahead depth: bounds in-flight buffer memory at
/// 16 × chunk bytes and stays under the async reader's queue depth.
constexpr size_t kMaxReadahead = 16;

}  // namespace

RRSpillStore::RRSpillStore(NodeId num_graph_nodes, RRSpillOptions options)
    : num_graph_nodes_(num_graph_nodes), options_(std::move(options)) {}

RRSpillStore::~RRSpillStore() {
  // Prefetched buffers that were never consumed are plain waste; count
  // them (for tests poking stats_ post-mortem) and let the reader's own
  // destructor drain the in-flight reads before the files go away.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [ci, ticket] : inflight_) {
      reader_->Cancel(ticket);
      stats_.prefetch_wasted += 1;
    }
    inflight_.clear();
  }
  reader_.reset();
  // Chunk files are scratch: delete the whole per-store subdirectory.
  // Errors are swallowed — a leaked temp dir must not fail a solve that
  // already returned its (correct) seeds.
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

Status RRSpillStore::EnsureDirLocked() {
  if (!dir_.empty()) return Status::OK();
  if (options_.dir.empty()) {
    return Status::InvalidArgument("rr spill: no spill directory configured");
  }
  const uint64_t id = g_store_counter.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path sub =
      std::filesystem::path(options_.dir) /
      ("rrspill-" + std::to_string(::getpid()) + "-" + std::to_string(id));
  std::error_code ec;
  std::filesystem::create_directories(sub, ec);
  if (ec) {
    return Status::IOError("rr spill: cannot create " + sub.string() + ": " +
                           ec.message());
  }
  dir_ = sub.string();
  return Status::OK();
}

Status RRSpillStore::SpillRange(const RRCollection& src,
                                std::span<const uint64_t> per_set_edges,
                                size_t local_first, size_t count,
                                uint64_t global_first) {
  if (count == 0) return Status::OK();
  if (local_first + count > src.num_sets()) {
    return Status::InvalidArgument("rr spill: range past source collection");
  }
  if (!per_set_edges.empty() && per_set_edges.size() < local_first + count) {
    return Status::InvalidArgument(
        "rr spill: per-set edges shorter than spill range");
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!chunks_.empty() &&
      global_first < chunks_.back().first + chunks_.back().count) {
    return Status::InvalidArgument(
        "rr spill: ranges must be appended in increasing index order");
  }
  TIMPP_RETURN_NOT_OK(EnsureDirLocked());

  // SerializeRRShard indexes `edges` by absolute local set id; synthesize
  // zeros when the caller has no per-set split (selection never reads
  // edge counts back).
  std::vector<uint64_t> zero_edges;
  std::span<const uint64_t> edges = per_set_edges;
  if (edges.empty()) {
    zero_edges.assign(local_first + count, 0);
    edges = zero_edges;
  }

  const uint64_t per_chunk = std::max<uint64_t>(1, options_.sets_per_chunk);
  std::string buffer;
  for (size_t done = 0; done < count;) {
    const size_t chunk_count =
        static_cast<size_t>(std::min<uint64_t>(per_chunk, count - done));
    Chunk chunk;
    chunk.first = global_first + done;
    chunk.count = chunk_count;
    chunk.path =
        (std::filesystem::path(dir_) /
         ("chunk-" + std::to_string(chunk.first) + "-" +
          std::to_string(chunk_count) + ".rrsh"))
            .string();

    buffer.clear();
    SerializeRRShard(src, edges, local_first + done, chunk_count, &buffer);
    chunk.bytes = buffer.size();

    std::ofstream out(chunk.path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("rr spill: cannot open " + chunk.path +
                             " for writing");
    }
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    out.flush();
    if (!out) return Status::IOError("rr spill: write failure on " + chunk.path);

    stats_.chunks_written += 1;
    stats_.sets_written += chunk_count;
    stats_.bytes_written += chunk.bytes;
    chunks_.push_back(std::move(chunk));
    done += chunk_count;
  }
  return Status::OK();
}

size_t RRSpillStore::FindChunkLocked(uint64_t index) const {
  // First chunk with end > index, then check it actually starts at/before.
  size_t lo = 0, hi = chunks_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (chunks_[mid].first + chunks_[mid].count <= index) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < chunks_.size() && chunks_[lo].first <= index) return lo;
  return chunks_.size();
}

bool RRSpillStore::Covers(uint64_t first, uint64_t count) const {
  return CoveredEnd(first, count) == first + count;
}

uint64_t RRSpillStore::CoveredEnd(uint64_t first, uint64_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t pos = first;
  const uint64_t end = first + limit;
  size_t ci = FindChunkLocked(pos);
  while (pos < end && ci < chunks_.size() && chunks_[ci].first <= pos) {
    pos = std::min(end, chunks_[ci].first + chunks_[ci].count);
    ++ci;
  }
  return pos;
}

uint64_t RRSpillStore::end_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_.empty() ? 0 : chunks_.back().first + chunks_.back().count;
}

size_t RRSpillStore::PinnedCapacity() const {
  return std::max<size_t>(1, options_.max_pinned_chunks);
}

size_t RRSpillStore::HotCapacity() const {
  const size_t cap = PinnedCapacity();
  if (cap <= 1) return 0;  // a single slot is all probation
  const double fraction =
      std::clamp(options_.tuning.hot_fraction, 0.0, 1.0);
  const size_t hot =
      static_cast<size_t>(fraction * static_cast<double>(cap) + 0.5);
  // Probation keeps at least one slot so fresh loads always have a home
  // that a second touch can promote from.
  return std::min(hot, cap - 1);
}

bool RRSpillStore::IsPinnedLocked(size_t chunk_index) const {
  for (const Pinned& p : hot_) {
    if (p.chunk_index == chunk_index) return true;
  }
  for (const Pinned& p : probation_) {
    if (p.chunk_index == chunk_index) return true;
  }
  return false;
}

const RRSpillStore::Pinned* RRSpillStore::TouchLocked(size_t chunk_index) {
  for (auto it = hot_.begin(); it != hot_.end(); ++it) {
    if (it->chunk_index == chunk_index) {
      hot_.splice(hot_.begin(), hot_, it);  // hot MRU
      stats_.chunk_hits += 1;
      stats_.hot_hits += 1;
      return &hot_.front();
    }
  }
  for (auto it = probation_.begin(); it != probation_.end(); ++it) {
    if (it->chunk_index != chunk_index) continue;
    stats_.chunk_hits += 1;
    stats_.probation_hits += 1;
    const size_t hot_cap = HotCapacity();
    if (hot_cap == 0) {
      probation_.splice(probation_.begin(), probation_, it);
      return &probation_.front();
    }
    // Promote: a re-touched chunk moves to the hot section, shielding it
    // from the churn of a sequential scan's first-touch stream.
    hot_.splice(hot_.begin(), probation_, it);
    while (hot_.size() > hot_cap) {
      // Demote the hot LRU rather than dropping it: it outranks any
      // never-re-touched probation entry.
      probation_.splice(probation_.begin(), hot_, std::prev(hot_.end()));
    }
    return &hot_.front();
  }
  return nullptr;
}

const RRSpillStore::Pinned* RRSpillStore::InsertPinnedLocked(
    Pinned&& loaded) {
  probation_.push_front(std::move(loaded));
  const size_t cap = PinnedCapacity();
  while (hot_.size() + probation_.size() > cap) {
    // Probation (never re-touched) drains first; the hot section is only
    // tapped when probation is down to the entry just inserted.
    if (probation_.size() > 1) {
      probation_.pop_back();
    } else if (!hot_.empty()) {
      hot_.pop_back();
    } else {
      break;
    }
  }
  return &probation_.front();
}

Status RRSpillStore::ReadChunkBytesSync(const Chunk& chunk,
                                        std::string* bytes) const {
  std::ifstream in(chunk.path, std::ios::binary);
  if (!in) return Status::IOError("rr spill: cannot open " + chunk.path);
  bytes->resize(static_cast<size_t>(chunk.bytes));
  in.read(bytes->data(), static_cast<std::streamsize>(bytes->size()));
  if (static_cast<uint64_t>(in.gcount()) != chunk.bytes) {
    return Status::IOError("rr spill: short read on " + chunk.path);
  }
  return Status::OK();
}

Status RRSpillStore::DecodeChunk(const Chunk& chunk, std::string_view bytes,
                                 RRCollection* sets,
                                 std::vector<uint64_t>* edges) const {
  TIMPP_RETURN_NOT_OK(
      DeserializeRRShard(bytes, num_graph_nodes_, sets, edges));
  if (sets->num_sets() != chunk.count) {
    return Status::Corruption("rr spill: chunk " + chunk.path +
                              " holds a different set count than written");
  }
  return Status::OK();
}

void RRSpillStore::PrefetchAheadLocked(size_t ci, uint64_t end) {
  const size_t depth =
      std::min(options_.tuning.readahead_chunks, kMaxReadahead);
  if (depth == 0 || ci >= chunks_.size()) return;
  uint64_t next_first = chunks_[ci].first + chunks_[ci].count;
  for (size_t cj = ci + 1;
       cj < chunks_.size() && cj <= ci + depth && inflight_.size() < depth;
       ++cj) {
    if (chunks_[cj].first != next_first || next_first >= end) break;
    next_first += chunks_[cj].count;
    if (IsPinnedLocked(cj) || inflight_.count(cj) != 0) continue;
    if (reader_ == nullptr) {
      AsyncIoOptions io;
      io.backend = options_.tuning.io_backend;
      io.queue_depth = static_cast<unsigned>(depth * 2);
      reader_ = options_.reader_factory ? options_.reader_factory(io)
                                        : AsyncFileReader::Create(io);
      if (reader_ == nullptr) return;  // factory refused; stay synchronous
    }
    const AsyncFileReader::Ticket ticket =
        reader_->Submit(chunks_[cj].path, 0, chunks_[cj].bytes);
    if (ticket == AsyncFileReader::kInvalidTicket) continue;
    stats_.prefetch_issued += 1;
    inflight_.emplace(cj, ticket);
  }
}

Status RRSpillStore::LoadChunkLocked(size_t chunk_index, const Pinned** out) {
  if (const Pinned* hit = TouchLocked(chunk_index)) {
    *out = hit;
    return Status::OK();
  }

  const Chunk& chunk = chunks_[chunk_index];
  std::string bytes;
  bool have_bytes = false;
  const auto it = inflight_.find(chunk_index);
  if (it != inflight_.end()) {
    const Status waited = reader_->Wait(it->second, &bytes);
    inflight_.erase(it);
    if (waited.ok()) {
      stats_.prefetch_hits += 1;
      have_bytes = true;
    } else {
      // Degrade, never fail: a broken prefetch read costs one synchronous
      // re-read and nothing else — decode below sees identical bytes.
      stats_.prefetch_wasted += 1;
      stats_.sync_fallback_reads += 1;
    }
  }
  if (!have_bytes) {
    TIMPP_RETURN_NOT_OK(ReadChunkBytesSync(chunk, &bytes));
  }

  Pinned loaded{chunk_index, RRCollection(num_graph_nodes_), {}};
  TIMPP_RETURN_NOT_OK(DecodeChunk(chunk, bytes, &loaded.sets, &loaded.edges));
  stats_.chunk_loads += 1;
  *out = InsertPinnedLocked(std::move(loaded));
  return Status::OK();
}

Status RRSpillStore::VisitRange(uint64_t first, uint64_t count,
                                const Filter& filter, const Visitor& visit,
                                uint64_t* stopped_at, uint64_t* sets_visited) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t pos = first;
  const uint64_t end = first + count;
  uint64_t visited = 0;
  Status status = Status::OK();
  while (pos < end) {
    const size_t ci = FindChunkLocked(pos);
    if (ci >= chunks_.size() || chunks_[ci].first > pos) break;  // gap
    // Issue the readahead before the demand load: the successors' reads
    // proceed while this chunk is read (first miss) and decoded/visited.
    PrefetchAheadLocked(ci, end);
    const Pinned* pinned = nullptr;
    status = LoadChunkLocked(ci, &pinned);
    if (!status.ok()) break;  // caller regenerates from *stopped_at
    const Chunk& chunk = chunks_[ci];
    const uint64_t stop = std::min(end, chunk.first + chunk.count);
    for (uint64_t index = pos; index < stop; ++index) {
      if (filter && !filter(index)) continue;
      visit(index,
            pinned->sets.Set(static_cast<RRSetId>(index - chunk.first)));
      ++visited;
    }
    pos = stop;
  }
  stats_.sets_read += visited;
  *stopped_at = pos;
  if (sets_visited != nullptr) *sets_visited = visited;
  return status;
}

std::vector<RRSpillStore::ChunkRange> RRSpillStore::ChunksOverlapping(
    uint64_t first, uint64_t count) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChunkRange> out;
  // First chunk ending past `first`; chunks are sorted and disjoint.
  const auto it = std::partition_point(
      chunks_.begin(), chunks_.end(),
      [first](const Chunk& c) { return c.first + c.count <= first; });
  for (auto c = it; c != chunks_.end() && c->first < first + count; ++c) {
    out.push_back({c->first, c->count});
  }
  return out;
}

Status RRSpillStore::VisitChunk(uint64_t first, uint64_t count,
                                const Filter& filter, const Visitor& visit,
                                ChunkScratch* scratch,
                                uint64_t* sets_visited) {
  if (sets_visited != nullptr) *sets_visited = 0;
  Chunk chunk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t ci = FindChunkLocked(first);
    if (ci >= chunks_.size() ||
        first + count > chunks_[ci].first + chunks_[ci].count) {
      return Status::NotFound("rr spill: range [" + std::to_string(first) +
                              ", " + std::to_string(first + count) +
                              ") is not inside one chunk");
    }
    chunk = chunks_[ci];
  }
  // Read and decode outside the mutex: this is what lets workers replay
  // different chunks at once.
  scratch->sets_.Clear();
  scratch->edges_.clear();
  TIMPP_RETURN_NOT_OK(ReadChunkBytesSync(chunk, &scratch->bytes_));
  TIMPP_RETURN_NOT_OK(DecodeChunk(chunk, scratch->bytes_, &scratch->sets_,
                                  &scratch->edges_));
  uint64_t visited = 0;
  for (uint64_t index = first; index < first + count; ++index) {
    if (filter && !filter(index)) continue;
    visit(index,
          scratch->sets_.Set(static_cast<RRSetId>(index - chunk.first)));
    ++visited;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.chunk_loads += 1;
    stats_.sets_read += visited;
  }
  if (sets_visited != nullptr) *sets_visited = visited;
  return Status::OK();
}

Status RRSpillStore::ReadRange(uint64_t first, uint64_t count,
                               RRCollection* out,
                               std::vector<uint64_t>* edges) {
  std::lock_guard<std::mutex> lock(mu_);
  // Validate coverage up front: on any failure nothing is appended.
  {
    uint64_t pos = first;
    const uint64_t end = first + count;
    size_t ci = FindChunkLocked(pos);
    while (pos < end && ci < chunks_.size() && chunks_[ci].first <= pos) {
      pos = std::min(end, chunks_[ci].first + chunks_[ci].count);
      ++ci;
    }
    if (pos != end) {
      return Status::NotFound("rr spill: range [" + std::to_string(first) +
                              ", " + std::to_string(first + count) +
                              ") not fully spilled");
    }
  }

  // Stage into locals so a mid-range I/O failure appends nothing.
  RRCollection staged(num_graph_nodes_);
  std::vector<uint64_t> staged_edges;
  uint64_t pos = first;
  const uint64_t end = first + count;
  while (pos < end) {
    const size_t ci = FindChunkLocked(pos);
    PrefetchAheadLocked(ci, end);
    const Pinned* pinned = nullptr;
    TIMPP_RETURN_NOT_OK(LoadChunkLocked(ci, &pinned));
    const Chunk& chunk = chunks_[ci];
    const uint64_t stop = std::min(end, chunk.first + chunk.count);
    const size_t local = static_cast<size_t>(pos - chunk.first);
    const size_t n = static_cast<size_t>(stop - pos);
    staged.AppendRange(pinned->sets, local, n);
    staged_edges.insert(staged_edges.end(), pinned->edges.begin() + local,
                        pinned->edges.begin() + local + n);
    stats_.sets_read += stop - pos;
    pos = stop;
  }
  out->AppendRange(staged, 0, staged.num_sets());
  if (edges != nullptr) {
    edges->insert(edges->end(), staged_edges.begin(), staged_edges.end());
  }
  return Status::OK();
}

RRSpillStats RRSpillStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string RRSpillStore::directory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

std::string RRSpillStore::io_backend_name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reader_ == nullptr ? "none" : reader_->backend_name();
}

}  // namespace timpp
