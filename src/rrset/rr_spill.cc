#include "rrset/rr_spill.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <system_error>
#include <utility>

#include "rrset/rr_serialization.h"

namespace timpp {

namespace {

/// Distinguishes stores within one process; combined with the pid it makes
/// the store's subdirectory unique across concurrent runs sharing a parent
/// spill directory.
std::atomic<uint64_t> g_store_counter{0};

/// The index range [first, first + count) as text, for error messages.
std::string RangeText(uint64_t first, uint64_t count) {
  std::string text = "[";
  text += std::to_string(first);
  text += ", ";
  text += std::to_string(first + count);
  text += ")";
  return text;
}

/// The calling thread's errno as text (thread-safe, unlike strerror).
std::string ErrnoText() {
  return std::error_code(errno, std::system_category()).message();
}

}  // namespace

RRSpillStore::RRSpillStore(NodeId num_graph_nodes, RRSpillOptions options)
    : num_graph_nodes_(num_graph_nodes), options_(std::move(options)) {}

RRSpillStore::~RRSpillStore() {
  // The spill file is scratch: close it and delete the whole per-store
  // subdirectory. Errors are swallowed — a leaked temp dir must not fail a
  // solve that already returned its (correct) seeds.
  file_.Reset();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

Status RRSpillStore::EnsureFileLocked() {
  if (file_.get() >= 0) return Status::OK();
  if (options_.dir.empty()) {
    return Status::InvalidArgument("rr spill: no spill directory configured");
  }
  if (dir_.empty()) {
    const uint64_t id =
        g_store_counter.fetch_add(1, std::memory_order_relaxed);
    const std::filesystem::path sub =
        std::filesystem::path(options_.dir) /
        ("rrspill-" + std::to_string(::getpid()) + "-" + std::to_string(id));
    std::error_code ec;
    std::filesystem::create_directories(sub, ec);
    if (ec) {
      return Status::IOError("rr spill: cannot create " + sub.string() +
                             ": " + ec.message());
    }
    dir_ = sub.string();
    path_ = (sub / "chunks.rrsh").string();
  }
  const int fd =
      ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  if (fd < 0) {
    return Status::IOError("rr spill: cannot open " + path_ + ": " +
                           ErrnoText());
  }
  file_.Reset(fd);
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
  TIMPP_RETURN_NOT_OK(EnsureFileLocked());

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
    buffer.clear();
    SerializeRRShard(src, edges, local_first + done, chunk_count, &buffer);

    // Append at the manifest's end. A failed write lists nothing and
    // leaves end_offset_ where it was, so the next append overwrites
    // whatever part of this chunk reached the file.
    for (size_t written = 0; written < buffer.size();) {
      const ssize_t got =
          ::pwrite(file_.get(), buffer.data() + written,
                   buffer.size() - written,
                   static_cast<off_t>(end_offset_ + written));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        return Status::IOError(
            "rr spill: write failure on " + path_ + " for chunk " +
            RangeText(global_first + done, chunk_count) + ": " +
            (got < 0 ? ErrnoText() : "no progress"));
      }
      written += static_cast<size_t>(got);
    }

    chunks_.push_back(
        {global_first + done, chunk_count, end_offset_, buffer.size()});
    end_offset_ += buffer.size();
    stats_.chunks_written += 1;
    stats_.sets_written += chunk_count;
    stats_.bytes_written += buffer.size();
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

Status RRSpillStore::ReadChunk(const Chunk& chunk,
                               ChunkScratch* scratch) const {
  scratch->sets_.Clear();
  scratch->edges_.clear();
  std::string& bytes = scratch->bytes_;
  bytes.resize(static_cast<size_t>(chunk.bytes));
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t got =
        ::pread(file_.get(), bytes.data() + done, bytes.size() - done,
                static_cast<off_t>(chunk.offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      return Status::IOError("rr spill: read failure on " + path_ +
                             " for chunk " +
                             RangeText(chunk.first, chunk.count) + ": " +
                             ErrnoText());
    }
    if (got == 0) {
      return Status::IOError("rr spill: " + path_ + " was cut inside chunk " +
                             RangeText(chunk.first, chunk.count));
    }
    done += static_cast<size_t>(got);
  }
  TIMPP_RETURN_NOT_OK(DeserializeRRShard(bytes, num_graph_nodes_,
                                         &scratch->sets_, &scratch->edges_));
  if (scratch->sets_.num_sets() != chunk.count) {
    return Status::Corruption("rr spill: chunk " +
                              RangeText(chunk.first, chunk.count) + " of " +
                              path_ +
                              " holds a different set count than written");
  }
  return Status::OK();
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
                                const ChunkVisitor& visit,
                                ChunkScratch* scratch) {
  Chunk chunk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t ci = FindChunkLocked(first);
    if (ci >= chunks_.size() ||
        first + count > chunks_[ci].first + chunks_[ci].count) {
      return Status::NotFound("rr spill: range " + RangeText(first, count) +
                              " is not inside one chunk");
    }
    chunk = chunks_[ci];
  }
  // Read and decode outside the mutex: this is what lets workers replay
  // different chunks at once.
  TIMPP_RETURN_NOT_OK(ReadChunk(chunk, scratch));
  const uint64_t read = visit(chunk.first, scratch->sets_);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.chunk_loads += 1;
  stats_.sets_read += read;
  return Status::OK();
}

Status RRSpillStore::VisitRange(uint64_t first, uint64_t count,
                                const Filter& filter, const Visitor& visit,
                                uint64_t* stopped_at, uint64_t* sets_visited) {
  const uint64_t end = first + count;
  uint64_t pos = first;
  uint64_t visited = 0;
  Status status = Status::OK();
  ChunkScratch scratch;
  for (const ChunkRange& chunk : ChunksOverlapping(first, count)) {
    if (pos == end || chunk.first > pos) break;  // done, or a gap
    const uint64_t stop = std::min(end, chunk.first + chunk.count);
    status = VisitChunk(
        pos, stop - pos,
        [&](uint64_t chunk_first, const RRCollection& sets) {
          uint64_t read = 0;
          for (uint64_t index = pos; index < stop; ++index) {
            if (filter && !filter(index)) continue;
            visit(index, sets.Set(static_cast<RRSetId>(index - chunk_first)));
            ++read;
          }
          visited += read;
          return read;
        },
        &scratch);
    if (!status.ok()) break;  // caller regenerates from *stopped_at
    pos = stop;
  }
  *stopped_at = pos;
  if (sets_visited != nullptr) *sets_visited = visited;
  return status;
}

RRSpillStats RRSpillStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string RRSpillStore::directory() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

std::string RRSpillStore::io_backend_name() const { return "sync"; }

}  // namespace timpp
