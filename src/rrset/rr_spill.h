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
// Two read paths share the chunk files. The parallel greedy replay
// (coverage/streaming_cover.h) lists the chunks of its range once with
// ChunksOverlapping and hands whole chunks to its workers, each of which
// reads, validates and decodes its own chunk through VisitChunk outside
// the store mutex — no pinned cache, no readahead, every decode check
// kept. The sequential paths (VisitRange, and ReadRange — the serving
// preload) go through a small pinned-chunk cache and read ahead: while a
// visitor drains one chunk, the store issues asynchronous reads
// (util/async_io.h — io_uring when the kernel allows, a pread thread pool
// otherwise) for the next `tuning.readahead_chunks` chunks in traversal
// order. Prefetch only moves *when* bytes are read, never *what* is
// decoded: a prefetched buffer that fails its read is discarded and the
// chunk is re-read synchronously, so every failure class degrades to the
// synchronous behavior with identical results.
//
// The pinned cache is a sectioned LRU (SLRU): a first touch lands a chunk
// in the *probation* section, a re-touch promotes it to the *hot* section,
// and eviction drains probation first — so one sequential replay pass
// (all first touches) can only churn probation and can never flush a
// re-touched hot chunk. `hot_fraction` splits the `max_pinned_chunks`
// capacity between the sections.
//
// Thread-safe: a single mutex guards the chunk manifest, the pinned cache
// and the counters, and serializes spills, sequential visits and reads.
// VisitChunk holds it only to copy one manifest entry and to add its
// counters, so concurrent VisitChunk callers read and decode in parallel.
// The async reader only ever holds raw undecoded buffers, never pinned
// chunks.
//
// Files live in a per-store unique subdirectory of `options.dir` and are
// deleted by the destructor.
#ifndef TIMPP_RRSET_RR_SPILL_H_
#define TIMPP_RRSET_RR_SPILL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rrset/rr_collection.h"
#include "util/async_io.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Sequential-read tuning (VisitRange/ReadRange): prefetch depth, section
/// split, IO backend. Plumbed from ServingOptions so the CLI can steer the
/// serving preload; the defaults are right for sequential replay.
struct RRSpillTuning {
  /// Chunks to read ahead of the replay cursor (0 disables prefetch and
  /// restores fully synchronous reads). Clamped to <= 16.
  size_t readahead_chunks = 2;
  /// Fraction of max_pinned_chunks reserved for the hot section (clamped
  /// so probation always keeps at least one slot when capacity > 1).
  double hot_fraction = 0.5;
  /// Async read backend; kAuto probes io_uring and falls back to threads.
  AsyncIoBackend io_backend = AsyncIoBackend::kAuto;
};

struct RRSpillOptions {
  /// Parent directory for this store's chunk files (created if missing).
  std::string dir;
  /// Sets per chunk file. Chunk size bounds both the spill write batches
  /// and the resident footprint of a pinned chunk.
  uint64_t sets_per_chunk = 4096;
  /// Loaded chunks kept resident (SLRU across both sections). 2 covers
  /// the common pattern of a visit range straddling one chunk boundary.
  size_t max_pinned_chunks = 2;
  RRSpillTuning tuning;
  /// Test seam: builds the async reader (defaults to
  /// AsyncFileReader::Create). Fault-injection tests substitute slow or
  /// failing readers to prove the synchronous degradation path.
  std::function<std::unique_ptr<AsyncFileReader>(const AsyncIoOptions&)>
      reader_factory;
};

/// Counters for spill accounting (monotone; snapshot via stats()).
struct RRSpillStats {
  uint64_t chunks_written = 0;
  uint64_t sets_written = 0;
  uint64_t bytes_written = 0;
  /// Chunk-file loads (cache misses) and cache hits; hits split below.
  uint64_t chunk_loads = 0;
  uint64_t chunk_hits = 0;
  /// Sets streamed back to visitors/readers (a filter-rejected set is not
  /// read).
  uint64_t sets_read = 0;
  /// Prefetch accounting. issued = async reads submitted; hits = demand
  /// loads served from a completed prefetch; wasted = prefetched buffers
  /// discarded unconsumed (store teardown) or failed; sync_fallback_reads
  /// = demand loads that fell back to a synchronous read after a prefetch
  /// error. hits + wasted <= issued (the rest is still in flight).
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t sync_fallback_reads = 0;
  /// SLRU section split of chunk_hits: hot_hits + probation_hits ==
  /// chunk_hits.
  uint64_t hot_hits = 0;
  uint64_t probation_hits = 0;
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
  /// sets actually delivered to `visit`. Reads ahead of the cursor per
  /// `tuning.readahead_chunks`.
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

  /// Decode buffers of one VisitChunk caller, reused across its calls.
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
  /// store mutex, bypassing the pinned cache and readahead. On a read or
  /// decode error nothing is visited and the error is returned; NotFound
  /// when no single chunk holds the range. `sets_visited` (optional)
  /// counts sets delivered to `visit`.
  Status VisitChunk(uint64_t first, uint64_t count, const Filter& filter,
                    const Visitor& visit, ChunkScratch* scratch,
                    uint64_t* sets_visited = nullptr);

  /// Appends the stored sets of [first, first + count) to `*out` (and
  /// their edge counts to `*edges`, if non-null) in index order. Fails
  /// with NotFound if the range is not fully covered; on any failure
  /// nothing is appended. Serving uses this to preload an evicted shared
  /// prefix back into cache chunks. Reads ahead like VisitRange.
  Status ReadRange(uint64_t first, uint64_t count, RRCollection* out,
                   std::vector<uint64_t>* edges);

  RRSpillStats stats() const;

  /// The per-store chunk directory (empty until the first spill).
  std::string directory() const;

  /// The async backend actually serving prefetch ("uring" | "threads"),
  /// or "none" before the first prefetch was issued.
  std::string io_backend_name() const;

 private:
  struct Chunk {
    uint64_t first = 0;
    uint64_t count = 0;
    std::string path;
    uint64_t bytes = 0;
  };
  struct Pinned {
    size_t chunk_index;
    RRCollection sets;
    std::vector<uint64_t> edges;
  };

  /// Creates the unique chunk subdirectory on first use.
  Status EnsureDirLocked();

  /// Returns the manifest position of the chunk containing `index`, or
  /// chunks_.size() when uncovered.
  size_t FindChunkLocked(uint64_t index) const;

  /// Loads (or cache-hits) chunk `chunk_index`; on success `*out` points
  /// at the pinned entry (valid until the next load under this mutex).
  /// Consumes a matching in-flight prefetch when one completed cleanly;
  /// a failed prefetch falls back to a synchronous read.
  Status LoadChunkLocked(size_t chunk_index, const Pinned** out);

  /// SLRU lookup: splices a hot hit to the hot MRU position, promotes a
  /// probation hit into hot (demoting the hot LRU when over the hot cap).
  /// Null on miss. Counts hit stats.
  const Pinned* TouchLocked(size_t chunk_index);

  /// Inserts a freshly loaded chunk at the probation MRU position and
  /// evicts (probation LRU first) down to capacity.
  const Pinned* InsertPinnedLocked(Pinned&& loaded);

  /// Whether either section pins `chunk_index`.
  bool IsPinnedLocked(size_t chunk_index) const;

  /// Issues async reads for the chunks after manifest position `ci` that
  /// the traversal towards `end` will need next (contiguous in index
  /// space, not pinned, not already in flight), up to the readahead depth.
  void PrefetchAheadLocked(size_t ci, uint64_t end);

  /// Reads chunk bytes synchronously (VisitChunk's path, and the
  /// degradation for every prefetch failure). Touches no shared state.
  Status ReadChunkBytesSync(const Chunk& chunk, std::string* bytes) const;

  /// Validates and decodes `bytes` as `chunk` into the empty `*sets` and
  /// `*edges`. Touches no shared state.
  Status DecodeChunk(const Chunk& chunk, std::string_view bytes,
                     RRCollection* sets, std::vector<uint64_t>* edges) const;

  /// Total pinned capacity and the hot section's share of it.
  size_t PinnedCapacity() const;
  size_t HotCapacity() const;

  const NodeId num_graph_nodes_;
  const RRSpillOptions options_;

  mutable std::mutex mu_;
  std::string dir_;             // unique subdir; empty until first spill
  std::vector<Chunk> chunks_;   // sorted by first, non-overlapping
  std::list<Pinned> hot_;        // front = most recently used
  std::list<Pinned> probation_;  // front = most recently used
  /// Outstanding prefetch tickets by manifest chunk position.
  std::map<size_t, AsyncFileReader::Ticket> inflight_;
  std::unique_ptr<AsyncFileReader> reader_;  // created on first prefetch
  RRSpillStats stats_;
};

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_SPILL_H_
