// Disk spill tier for RR-set stream prefixes.
//
// Budgeted selection keeps only a prefix of the θ sampled RR sets
// resident; the suffix used to be *regenerated* from the per-index RNG on
// every greedy round (O(passes × sampling cost)). RRSpillStore instead
// writes evicted index ranges as rr_serialization shards ("chunks") and
// streams them back — disk reads replace repeated graph traversals, and
// the replayed sets are byte-identical to the sampled originals (the
// shard format round-trips members, widths and per-set edge counts
// exactly, so seeds/θ/LB match the regeneration path bit for bit).
//
// One store holds one engine's global index space: chunks are appended in
// increasing index order (gaps allowed — IMM spills its sampling phase and
// its selection phase into the same store even when the phases are
// separated by discarded ranges) and never overlap. Readers address sets
// by global index; ranges the store does not cover simply fall back to
// engine regeneration at the caller (VisitRange reports how far it got,
// ChunksOverlapping lists what is covered).
//
// All of a store's chunks live back to back in one append-only file,
// opened once and kept open until destruction. A spill appends each
// chunk with positional writes at the file's end; every read is one
// positional read of the chunk's byte range, then the shard decoder's
// full validation. VisitChunk is the one read primitive: the parallel
// greedy replay (coverage/streaming_cover.h) lists the chunks of its
// range once with ChunksOverlapping and hands whole chunks to its
// workers, each of which reads and decodes its own chunk through
// VisitChunk into its own ChunkScratch. VisitRange is a sequential loop
// over the same two calls.
//
// Thread-safe: a single mutex guards the chunk manifest and the
// counters, and serializes spills. A read holds it only to copy manifest
// entries and to add its counters; positional reads need no shared file
// offset, so concurrent VisitChunk callers read and decode in parallel.
//
// The file lives in a per-store unique subdirectory of `options.dir`,
// which the destructor deletes.
#ifndef TIMPP_RRSET_RR_SPILL_H_
#define TIMPP_RRSET_RR_SPILL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "rrset/rr_collection.h"
#include "util/scoped_fd.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

struct RRSpillOptions {
  /// Parent directory for this store's spill file (created if missing).
  std::string dir;
  /// Sets per chunk. Chunk size bounds both the spill write batches and
  /// the unit of every read: one decoded chunk is what a ChunkScratch
  /// holds.
  uint64_t sets_per_chunk = 4096;
};

/// Counters for spill accounting (monotone; snapshot via stats()).
struct RRSpillStats {
  uint64_t chunks_written = 0;
  uint64_t sets_written = 0;
  uint64_t bytes_written = 0;
  /// Chunk reads from the file.
  uint64_t chunk_loads = 0;
  /// Sets streamed back to visitors (a filter-rejected set is not read;
  /// VisitChunk counts what its visitor reports reading).
  uint64_t sets_read = 0;
  /// Always 0: no read is prefetched. Kept until the end-to-end
  /// benchmark stops reading them (ROADMAP item 6).
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t sync_fallback_reads = 0;
};

class RRSpillStore {
 public:
  using Filter = std::function<bool(uint64_t index)>;
  using Visitor =
      std::function<void(uint64_t index, std::span<const NodeId> nodes)>;
  /// Called once per VisitChunk with the decoded chunk: `sets` holds the
  /// sets of global indices [chunk_first, chunk_first + sets.num_sets()).
  /// Returns how many sets of the requested range it read, which
  /// stats().sets_read counts.
  using ChunkVisitor =
      std::function<uint64_t(uint64_t chunk_first, const RRCollection& sets)>;

  /// `num_graph_nodes` validates reloaded shard node ids (a corrupt chunk
  /// fails its read instead of poisoning the collection).
  RRSpillStore(NodeId num_graph_nodes, RRSpillOptions options);
  ~RRSpillStore();

  RRSpillStore(const RRSpillStore&) = delete;
  RRSpillStore& operator=(const RRSpillStore&) = delete;

  /// Spills sets [local_first, local_first + count) of `src` — which hold
  /// the RR sets of global indices [global_first, global_first + count) —
  /// as one or more chunks appended to the store's file. `per_set_edges`,
  /// when non-empty, is indexed by local set id (rr_serialization's
  /// convention) and must cover the range; when empty, zero edge counts
  /// are recorded (readers that only need members and widths — selection
  /// — are unaffected).
  /// `global_first` must be >= the store's current end_index(): chunks
  /// are append-only in index space, gaps allowed. On a write error the
  /// chunks written before it stay, the failed one is not listed, and the
  /// next append overwrites its partial bytes.
  Status SpillRange(const RRCollection& src,
                    std::span<const uint64_t> per_set_edges,
                    size_t local_first, size_t count, uint64_t global_first);

  /// Largest e <= first + limit with [first, e) fully chunk-covered
  /// (== first when the store has nothing at `first`).
  uint64_t CoveredEnd(uint64_t first, uint64_t limit) const;

  /// Exclusive end of the highest chunk (0 when nothing spilled).
  uint64_t end_index() const;

  /// Streams the stored sets of [first, first + count) through `visit` in
  /// index order, skipping indices `filter` rejects (filter may be null).
  /// Advances `*stopped_at` to the end of the covered-and-visited prefix:
  /// first + count when fully covered, the first uncovered index on a
  /// coverage gap, or the failed chunk's start on an I/O/corruption error
  /// (in which case the error Status is returned and the caller
  /// regenerates from `*stopped_at`). `sets_visited` (optional) counts
  /// sets actually delivered to `visit`. Every chunk it touches is one
  /// VisitChunk call, and so one chunk load. No library code calls it;
  /// bench_outofcore's cold replay and the end-to-end benchmark's probe
  /// do (ROADMAP item 6).
  Status VisitRange(uint64_t first, uint64_t count, const Filter& filter,
                    const Visitor& visit, uint64_t* stopped_at,
                    uint64_t* sets_visited = nullptr);

  /// Global index range [first, first + count) of one chunk.
  struct ChunkRange {
    uint64_t first = 0;
    uint64_t count = 0;
  };

  /// Every chunk holding an index of [first, first + count), in index
  /// order, unclipped (the first and last may extend past the range).
  /// Indices between consecutive entries are uncovered.
  std::vector<ChunkRange> ChunksOverlapping(uint64_t first,
                                            uint64_t count) const;

  /// Decode buffers of one chunk: one per VisitChunk caller, reused
  /// across its calls.
  class ChunkScratch {
   private:
    friend class RRSpillStore;
    std::string bytes_;
    RRCollection sets_{0};
    std::vector<uint64_t> edges_;
  };

  /// Reads, validates and decodes the chunk holding [first, first + count)
  /// into `scratch` and hands it to `visit` once; the caller scans the
  /// sets it needs. Safe to call from many threads at once: the read and
  /// decode run outside the store mutex. On a read or decode error
  /// `visit` is not called and the error is returned; NotFound when no
  /// single chunk holds the range.
  Status VisitChunk(uint64_t first, uint64_t count, const ChunkVisitor& visit,
                    ChunkScratch* scratch);

  RRSpillStats stats() const;

  /// The per-store directory holding the spill file (empty until the
  /// first spill).
  std::string directory() const;

  /// Always "sync". Kept until the end-to-end benchmark stops reading it
  /// (ROADMAP item 6).
  std::string io_backend_name() const;

 private:
  /// One manifest entry: the sets of [first, first + count), serialized
  /// into file bytes [offset, offset + bytes).
  struct Chunk {
    uint64_t first = 0;
    uint64_t count = 0;
    uint64_t offset = 0;
    uint64_t bytes = 0;
  };

  /// Creates the unique subdirectory and opens the spill file on first
  /// use.
  Status EnsureFileLocked();

  /// Returns the manifest position of the chunk containing `index`, or
  /// chunks_.size() when uncovered.
  size_t FindChunkLocked(uint64_t index) const;

  /// Reads, validates and decodes `chunk` into `*scratch`. Touches no
  /// mutable shared state: `file_` and `path_` are set once, under the
  /// mutex, before any chunk is listed.
  Status ReadChunk(const Chunk& chunk, ChunkScratch* scratch) const;

  const NodeId num_graph_nodes_;
  const RRSpillOptions options_;

  mutable std::mutex mu_;
  std::string dir_;             // unique subdir; empty until first spill
  std::string path_;            // the spill file inside dir_
  ScopedFd file_;               // open from the first spill on
  uint64_t end_offset_ = 0;     // file bytes the manifest accounts for
  std::vector<Chunk> chunks_;   // sorted by first, non-overlapping
  RRSpillStats stats_;
};

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_SPILL_H_
