// Disk spill tier for RR-set stream prefixes.
//
// Budgeted selection keeps only a prefix of the θ sampled RR sets
// resident; the suffix used to be *regenerated* from the per-index RNG on
// every greedy round (O(passes × sampling cost)). RRSpillStore instead
// writes evicted index ranges as sequential rr_serialization shard files
// ("chunks") and streams them back — disk reads replace repeated graph
// traversals, and the replayed sets are byte-identical to the sampled
// originals (the shard format round-trips members, widths and per-set
// edge counts exactly, so seeds/θ/LB match the regeneration path bit for
// bit).
//
// One store holds one engine's global index space: chunks are appended in
// increasing index order (gaps allowed — IMM spills its sampling phase and
// its selection phase into the same store even when the phases are
// separated by discarded ranges) and never overlap. Readers address sets
// by global index; ranges the store does not cover simply fall back to
// engine regeneration at the caller (VisitRange reports how far it got,
// ChunksOverlapping lists what is covered).
//
// Every read is synchronous and goes through one read-validate-decode
// step. The parallel greedy replay (coverage/streaming_cover.h) lists the
// chunks of its range once with ChunksOverlapping and hands whole chunks
// to its workers, each of which reads and decodes its own chunk through
// VisitChunk outside the store mutex. The sequential paths (VisitRange,
// and ReadRange — the serving preload) keep the last chunk they decoded:
// their only traffic is forward, a growing stream that may resume inside
// the chunk it read last, so one cached chunk serves every re-touch.
//
// Thread-safe: a single mutex guards the chunk manifest, the cached chunk
// and the counters, and serializes spills, sequential visits and reads.
// VisitChunk holds it only to copy one manifest entry and to add its
// counters, so concurrent VisitChunk callers read and decode in parallel.
//
// Files live in a per-store unique subdirectory of `options.dir` and are
// deleted by the destructor.
#ifndef TIMPP_RRSET_RR_SPILL_H_
#define TIMPP_RRSET_RR_SPILL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "rrset/rr_collection.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

struct RRSpillOptions {
  /// Parent directory for this store's chunk files (created if missing).
  std::string dir;
  /// Sets per chunk file. Chunk size bounds both the spill write batches
  /// and the unit of every read: one decoded chunk is what a VisitChunk
  /// caller's scratch and the sequential paths' cached chunk hold.
  uint64_t sets_per_chunk = 4096;
};

/// Counters for spill accounting (monotone; snapshot via stats()).
struct RRSpillStats {
  uint64_t chunks_written = 0;
  uint64_t sets_written = 0;
  uint64_t bytes_written = 0;
  /// Chunk-file loads, and sequential re-touches served by the cached
  /// chunk.
  uint64_t chunk_loads = 0;
  uint64_t chunk_hits = 0;
  /// Sets streamed back to visitors/readers (a filter-rejected set is not
  /// read).
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

  /// `num_graph_nodes` validates reloaded shard node ids (a corrupt chunk
  /// fails its read instead of poisoning the collection).
  RRSpillStore(NodeId num_graph_nodes, RRSpillOptions options);
  ~RRSpillStore();

  RRSpillStore(const RRSpillStore&) = delete;
  RRSpillStore& operator=(const RRSpillStore&) = delete;

  /// Spills sets [local_first, local_first + count) of `src` — which hold
  /// the RR sets of global indices [global_first, global_first + count) —
  /// as one or more chunk files. `per_set_edges`, when non-empty, is
  /// indexed by local set id (rr_serialization's convention) and must
  /// cover the range; when empty, zero edge counts are recorded (readers
  /// that only need members and widths — selection — are unaffected).
  /// `global_first` must be >= the store's current end_index(): chunks
  /// are append-only in index space, gaps allowed.
  Status SpillRange(const RRCollection& src,
                    std::span<const uint64_t> per_set_edges,
                    size_t local_first, size_t count, uint64_t global_first);

  /// Whether every index of [first, first + count) is in some chunk.
  bool Covers(uint64_t first, uint64_t count) const;

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
  /// sets actually delivered to `visit`. No library code calls it;
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
  /// across its calls (the store keeps one more as its cached chunk).
  class ChunkScratch {
   private:
    friend class RRSpillStore;
    std::string bytes_;
    RRCollection sets_{0};
    std::vector<uint64_t> edges_;
  };

  /// Streams the stored sets of [first, first + count), which must lie in
  /// one chunk, through `visit` in index order, skipping indices `filter`
  /// rejects (filter may be null). Safe to call from many threads at once:
  /// the chunk is read, validated and decoded into `scratch` outside the
  /// store mutex, bypassing the cached chunk. On a read or decode error
  /// nothing is visited and the error is returned; NotFound when no
  /// single chunk holds the range. `sets_visited` (optional) counts sets
  /// delivered to `visit`.
  Status VisitChunk(uint64_t first, uint64_t count, const Filter& filter,
                    const Visitor& visit, ChunkScratch* scratch,
                    uint64_t* sets_visited = nullptr);

  /// Appends the stored sets of [first, first + count) to `*out` (and
  /// their edge counts to `*edges`, if non-null) in index order. Fails
  /// with NotFound if the range is not fully covered; on any failure
  /// nothing is appended. Serving uses this to preload an evicted shared
  /// prefix back into cache chunks.
  Status ReadRange(uint64_t first, uint64_t count, RRCollection* out,
                   std::vector<uint64_t>* edges);

  RRSpillStats stats() const;

  /// The per-store chunk directory (empty until the first spill).
  std::string directory() const;

  /// Always "sync". Kept until the end-to-end benchmark stops reading it
  /// (ROADMAP item 6).
  std::string io_backend_name() const;

 private:
  struct Chunk {
    uint64_t first = 0;
    uint64_t count = 0;
    std::string path;
    uint64_t bytes = 0;
  };
  static constexpr size_t kNoChunk = static_cast<size_t>(-1);

  /// Creates the unique chunk subdirectory on first use.
  Status EnsureDirLocked();

  /// Returns the manifest position of the chunk containing `index`, or
  /// chunks_.size() when uncovered.
  size_t FindChunkLocked(uint64_t index) const;

  /// CoveredEnd under the held mutex.
  uint64_t CoveredEndLocked(uint64_t first, uint64_t limit) const;

  /// Makes manifest chunk `chunk_index` the cached chunk, reading it
  /// unless it already is (a hit). On failure nothing is cached.
  Status LoadCachedLocked(size_t chunk_index);

  /// Reads, validates and decodes `chunk` into `*scratch`. Touches no
  /// shared state.
  Status ReadChunk(const Chunk& chunk, ChunkScratch* scratch) const;

  const NodeId num_graph_nodes_;
  const RRSpillOptions options_;

  mutable std::mutex mu_;
  std::string dir_;             // unique subdir; empty until first spill
  std::vector<Chunk> chunks_;   // sorted by first, non-overlapping
  ChunkScratch cached_;         // the last chunk VisitRange/ReadRange read
  size_t cached_chunk_ = kNoChunk;
  RRSpillStats stats_;
};

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_SPILL_H_
