// SharedRRCache — one sampling stream's RR sets, cached across requests
// and readable concurrently.
//
// The engine's determinism contract makes RR set i a pure function of
// (seed, i): whichever request first needs index i materializes the same
// bytes any other request would have. So a graph's serving context keeps
// ONE collection per sampling configuration, grown monotonically to the
// largest stream prefix any request has needed (this is the RR-sketch
// observation of Borgs et al. — a single sample pool serves any k — plus
// the QuickIM-style amortization across requests), and every request reads
// its ranges out of it: a request needing θ′ ≤ θ consumes exactly the
// prefix [0, θ′) it would have generated standalone.
//
// Concurrency model — single writer, many wait-free readers:
//
//   * Storage grows in immutable chunks. A grow (one per EnsurePrefix
//     that actually extends the stream) samples its sets into a fresh
//     chunk under `grow_mu_`, appends the chunk pointer to the chunk
//     directory, and only then PUBLISHES the new prefix length with a
//     release store to `committed_`. A chunk is never mutated after
//     publication, and nothing a reader can reach is ever freed before
//     the cache itself dies (directory arrays retired on growth are kept
//     until the destructor).
//   * Readers acquire-load `committed_`; any index below that value is
//     backed by a fully written chunk, because the chunk writes
//     happen-before the release store the reader synchronized with
//     (num_chunks_ and dir_ are loaded afterwards, each release-stored
//     earlier by the writer, so write-read coherence makes them at least
//     as new). Reads of resident prefixes therefore take no lock at all —
//     concurrent requests replay shared ranges truly in parallel.
//   * Only a reader that needs indices past the committed prefix takes
//     the grow lock (becoming the writer for that grow). Content is
//     position-determined, so WHICH request grows the stream never
//     affects the bytes — only who pays the sampling cost first.
//
// Per-set edge counts are stored alongside the sets so replayed ranges
// report the same accounting (edges_examined, traversal_cost) as sampling
// them fresh — request stats stay bit-comparable to standalone runs.
// Lifetime counters are atomics; per-request accounting lives in each
// request's CachedSampleSource.
#ifndef TIMPP_SERVING_RR_CACHE_H_
#define TIMPP_SERVING_RR_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "util/status.h"

namespace timpp {

/// Monotone prefix cache of one engine's global index stream. Internally
/// synchronized: any number of threads may call Read/ReadUntilCost/
/// EnsurePrefix concurrently.
class SharedRRCache {
 public:
  /// `graph` is borrowed and must outlive the cache. `config` fixes the
  /// stream (model, sampler mode, seed, hop bound) and the sampling
  /// parallelism; content is thread-count invariant per the engine
  /// contract. `spill` (optional) is a disk tier keyed by the same stream:
  /// EnsurePrefix reloads ranges the store covers instead of resampling
  /// them, and SpillCommitted() writes the published prefix out so an
  /// evicted cache's successor — constructed with the same store — starts
  /// from disk rather than regeneration. The store must outlive the cache.
  SharedRRCache(const Graph& graph, const SamplingConfig& config,
                std::shared_ptr<RRSpillStore> spill = nullptr);
  ~SharedRRCache();

  SharedRRCache(const SharedRRCache&) = delete;
  SharedRRCache& operator=(const SharedRRCache&) = delete;

  const Graph& graph() const { return engine_.graph(); }
  /// The shared engine. Only its config accessors are safe to call
  /// concurrently; batch calls go through the cache, which serializes
  /// them under its grow lock.
  SamplingEngine& engine() { return engine_; }

  /// Sets currently published (readable without touching the grow lock).
  uint64_t cached_sets() const {
    return committed_.load(std::memory_order_acquire);
  }

  /// Grows the stream so indices [0, count) are resident, publishing the
  /// new prefix for concurrent readers. No-op when already there.
  void EnsurePrefix(uint64_t count);

  /// Appends the stream's sets [first, first + count) to `*out`,
  /// byte-identical to sampling them fresh, growing the cache as needed.
  /// Lock-free when the range is already published. The returned
  /// accounting matches a fresh sample of the range; sets_reused counts
  /// how many were already published when the call began. `per_set_edges`
  /// (optional) receives each delivered set's edges-examined count in set
  /// order, mirroring the appends to `*out`.
  SampleBatch Read(uint64_t first, uint64_t count, RRCollection* out,
                   std::vector<uint64_t>* per_set_edges = nullptr);

  /// Cost-threshold read (Borgs et al.'s stopping rule, bit-equal to
  /// SamplingEngine::SampleUntilCost run from stream position `first`):
  /// appends sets from index `first` while the running traversal cost is
  /// below `cost_threshold` (the crossing set is kept), capped at
  /// `max_sets` appended sets (0 = none), growing the cache as it goes.
  SampleBatch ReadUntilCost(uint64_t first, double cost_threshold,
                            uint64_t max_sets, RRCollection* out);

  /// Writes every published set not yet on disk to the spill store (the
  /// eviction hook: called by a context before it drops its reference so
  /// the stream's successor reloads instead of resampling). No-op without
  /// a store; a failure leaves a shorter spilled prefix — the successor
  /// regenerates the rest, results unchanged.
  Status SpillCommitted();

  /// Lifetime counters across every request served from this cache.
  uint64_t total_sets_sampled() const {
    return total_sets_sampled_.load(std::memory_order_relaxed);
  }
  uint64_t total_sets_served() const {
    return total_sets_served_.load(std::memory_order_relaxed);
  }
  uint64_t total_sets_reused() const {
    return total_sets_reused_.load(std::memory_order_relaxed);
  }
  /// Sets whose bytes came back from the spill store instead of sampling.
  uint64_t total_sets_spill_loaded() const {
    return total_sets_spill_loaded_.load(std::memory_order_relaxed);
  }

  /// Heap bytes of the published chunks plus the per-set edge counts and
  /// the chunk directory — what a context reports as the price of reuse.
  /// Chunks are trimmed to size before publication, so this is exactly
  /// the bytes they hold plus the directory's slots. Concurrent-safe; a
  /// grow racing the walk is counted from the next call on.
  size_t MemoryBytes() const;

 private:
  /// One immutable grow: sets [first, first + sets.num_sets()) of the
  /// stream plus their per-set edge counts. Fully written before its
  /// directory slot is published; never touched again until destruction.
  struct Chunk {
    explicit Chunk(NodeId num_nodes) : sets(num_nodes) {}
    uint64_t first = 0;
    RRCollection sets;
    std::vector<uint64_t> edges;
  };

  /// Chunk directory: copy-on-grow array of chunk pointers. `slots` is
  /// plain (not atomic) — slot j is written once by the writer before the
  /// release store readers synchronize with, and readers only touch
  /// slots below the published chunk count.
  struct Directory {
    explicit Directory(size_t cap) : capacity(cap), slots(new Chunk*[cap]) {}
    size_t capacity;
    std::unique_ptr<Chunk*[]> slots;
  };

  /// The chunk holding stream index `index`, which must be below the
  /// published prefix observed by the caller.
  const Chunk* FindChunk(uint64_t index) const;

  SamplingEngine engine_;  // batch calls guarded by grow_mu_
  std::shared_ptr<RRSpillStore> spill_;  // optional disk tier (own mutex)

  // --- writer state (guarded by grow_mu_) -------------------------------
  std::mutex grow_mu_;
  std::vector<std::unique_ptr<Chunk>> owned_chunks_;     // all ever grown
  std::vector<std::unique_ptr<Directory>> owned_dirs_;   // incl. current
  // --- published state (written under grow_mu_, read lock-free) --------
  std::atomic<Directory*> dir_{nullptr};
  std::atomic<size_t> num_chunks_{0};
  std::atomic<uint64_t> committed_{0};  // prefix length; the publish point
  // --- lifetime accounting ---------------------------------------------
  std::atomic<uint64_t> total_sets_sampled_{0};
  std::atomic<uint64_t> total_sets_served_{0};
  std::atomic<uint64_t> total_sets_reused_{0};
  std::atomic<uint64_t> total_sets_spill_loaded_{0};
};

/// A request's cursor over a SharedRRCache: the SampleSource the serving
/// layer hands to solvers. Starts at stream index 0 — exactly where a
/// standalone run's private engine starts — and tracks per-request reuse.
/// One CachedSampleSource belongs to one request thread; the shared cache
/// behind it is safe for any number of concurrent sources.
class CachedSampleSource final : public SampleSource {
 public:
  explicit CachedSampleSource(SharedRRCache* cache) : cache_(cache) {}

  SamplingEngine& engine() override { return cache_->engine(); }
  // The shared engine's pool serves every request's fills: not lendable.
  ThreadPool* pool() override { return nullptr; }
  const Graph& graph() const override { return cache_->graph(); }
  uint64_t position() const override { return cursor_; }
  void Seek(uint64_t index) override {
    cursor_ = std::max(cursor_, index);
  }

  SampleBatch Fetch(RRCollection* out, uint64_t count,
                    std::vector<uint64_t>* per_set_edges = nullptr) override;
  SampleBatch FetchUntilCost(RRCollection* out, double cost_threshold,
                             uint64_t max_sets) override;

  /// Reuse accounting for this request alone.
  uint64_t sets_reused() const { return sets_reused_; }
  uint64_t sets_sampled() const { return sets_sampled_; }

 private:
  SharedRRCache* cache_;
  uint64_t cursor_ = 0;
  uint64_t sets_reused_ = 0;
  uint64_t sets_sampled_ = 0;
};

}  // namespace timpp

#endif  // TIMPP_SERVING_RR_CACHE_H_
