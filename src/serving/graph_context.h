// GraphContext — everything a serving layer keeps alive per graph so that
// requests against it amortize each other's work.
//
// A context owns the Graph, one SharedRRCache per StreamKey ever requested
// (engine/run_options.h: different keys are different RR streams and share
// nothing; thread count is not part of the key), and a
// PhaseCache memoizing TIM's KPT estimation and IMM's LB search. Per the
// engine's per-index RNG contract, a request that needs the stream prefix
// [0, θ′) consumes exactly the bytes it would have generated standalone —
// so batch results are bit-identical to standalone runs while the
// sampling cost of a prefix is paid once per context, not once per
// request.
//
// Memory: the shared collections may be byte-capped (`cache_budget_bytes`).
// Past the cap, whole stream caches are evicted least-recently-used —
// re-deriving an evicted stream later costs resampling but never changes
// results (the stream is a pure function of its key), so a capped context
// still serves bit-identical responses.
//
// Concurrency: requests run truly concurrently against one context. The
// stream map hands out shared_ptr references (AcquireStream), so LRU
// eviction retires a stream by dropping the map's reference — the chunks
// stay alive until the last in-flight reader releases its handle
// (refcount retirement; eviction never frees memory a live reader can
// reach). The caches themselves are single-writer/multi-reader
// (serving/rr_cache.h), the PhaseCache is a once-map behind one lock,
// and the context's own bookkeeping (map shape, LRU ticks, retired
// counters) sits behind an internal mutex. Results stay independent of
// thread count and arrival order — the cache is a monotone stream
// prefix, so any request order materializes the same bytes.
#ifndef TIMPP_SERVING_GRAPH_CONTEXT_H_
#define TIMPP_SERVING_GRAPH_CONTEXT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "engine/phase_cache.h"
#include "engine/run_options.h"
#include "graph/graph.h"
#include "serving/rr_cache.h"
#include "util/types.h"

namespace timpp {

/// Per-graph serving state. Not copyable; owned by a ServingEngine (or a
/// test). Thread-safe: any number of requests may acquire streams, read,
/// and enforce the budget concurrently.
class GraphContext {
 public:
  /// Takes ownership of `graph`. `num_threads` is the sampling
  /// parallelism every cache engine of this context is built with
  /// (responses are identical at any value).
  explicit GraphContext(Graph graph, unsigned num_threads = 1);

  GraphContext(const GraphContext&) = delete;
  GraphContext& operator=(const GraphContext&) = delete;

  const Graph& graph() const { return graph_; }

  /// The shared stream cache for `key`, created on first use and marked
  /// most-recently-used. The returned handle shares ownership: a stream
  /// evicted by EnforceCacheBudget while the caller still reads it stays
  /// fully alive until the handle drops. A key's custom_model is retained
  /// for the context's lifetime, so it must outlive the context (the
  /// ServingEngine never passes one: triggering requests run standalone).
  std::shared_ptr<SharedRRCache> AcquireStream(const StreamKey& key);

  /// AcquireStream for single-threaded callers that want a reference and
  /// manage eviction themselves (tests, demos). The reference is only
  /// safe while no concurrent eviction can run.
  SharedRRCache& CacheFor(const StreamKey& key) { return *AcquireStream(key); }

  PhaseCache& phase_cache() { return phase_cache_; }
  const PhaseCache& phase_cache() const { return phase_cache_; }

  /// Byte cap on the shared collections (0 = unlimited). Enforced by
  /// EnforceCacheBudget — typically by the ServingEngine after each
  /// request; callers driving a context directly decide when.
  void set_cache_budget_bytes(size_t bytes);
  size_t cache_budget_bytes() const;

  /// Evicts least-recently-used stream caches until SharedMemoryBytes()
  /// fits the budget (possibly evicting every stream when even one
  /// exceeds it — re-created on next use, identical by the per-index RNG
  /// contract). An evicted stream still referenced by an in-flight
  /// request survives until that request's handle drops (refcount
  /// retirement); it just stops being offered to new requests. Returns
  /// the number of streams evicted. No-op at budget 0.
  size_t EnforceCacheBudget();

  /// Accounting across every cache of the context (the README's "memory
  /// accounting of shared collections"). Totals include evicted streams'
  /// history, so reuse ratios stay meaningful under a byte cap.
  size_t SharedMemoryBytes() const;
  uint64_t TotalSetsSampled() const;
  uint64_t TotalSetsServed() const;
  uint64_t TotalSetsReused() const;
  size_t NumStreams() const;
  /// Lifetime count of budget evictions (streams dropped, not bytes).
  uint64_t StreamsEvicted() const;

 private:
  struct CacheEntry {
    std::shared_ptr<SharedRRCache> cache;
    uint64_t last_used = 0;
  };

  Graph graph_;
  // Every cache engine's execution knobs; AcquireStream fills in the key.
  SamplingConfig sampling_;
  PhaseCache phase_cache_;
  mutable std::mutex mu_;  // guards everything below
  std::map<StreamKey, CacheEntry> caches_;
  size_t cache_budget_bytes_ = 0;
  uint64_t use_tick_ = 0;
  uint64_t streams_evicted_ = 0;
  // Carried-over totals of evicted caches (accounting survives eviction).
  uint64_t retired_sets_sampled_ = 0;
  uint64_t retired_sets_served_ = 0;
  uint64_t retired_sets_reused_ = 0;
};

}  // namespace timpp

#endif  // TIMPP_SERVING_GRAPH_CONTEXT_H_
