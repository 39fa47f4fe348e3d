// SampleBackend — where RR sets physically get produced.
//
// SamplingEngine owns the global index stream (which set indices a batch
// call consumes, where early stops land, how chunks merge into the output
// collection) but delegates the actual production of a contiguous index
// range to a SampleBackend. Two implementations exist:
//
//   LocalThreadBackend   (engine/local_thread_backend.h) — the classic
//     in-process fill: a worker pool claims fixed-size index chunks off an
//     atomic counter and samples them into private shard collections.
//   ProcessShardBackend  (distributed/process_shard_backend.h) — the
//     scale-out path: the range is partitioned into contiguous shards
//     dispatched to worker subprocesses over pipes; serialized shards come
//     back and merge in shard order.
//
// Both implement the same determinism contract the engine has always had:
// RR set i is a pure function of (config.seed, i) — see SampleIndexRng —
// so a backend's output depends only on which indices it was asked for,
// never on worker count, thread count, or process boundaries. That is what
// makes `--backend=procs:N` bit-identical to `--backend=local` for every
// solver, and what lets one SharedRRCache stream serve any backend.
//
// Unlike the engine's accounting-only batch calls, backend fills can FAIL
// (a worker process dies mid-shard): Fill returns Status and the engine
// latches the first error instead of returning truncated results.
#ifndef TIMPP_ENGINE_SAMPLE_BACKEND_H_
#define TIMPP_ENGINE_SAMPLE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rrset/rr_collection.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

class AliasTable;
class Graph;
struct SamplingConfig;

/// Per-index predicate: a fill skips the traversal of indices the filter
/// rejects entirely. May be invoked concurrently (see
/// SamplingEngine::SampleFilter for the exact contract).
using SampleFilter = std::function<bool(uint64_t index)>;

/// Which backend produces samples.
enum class SampleBackendKind {
  /// In-process worker threads (the default; always available).
  kLocalThreads,
  /// Worker subprocesses coordinated over pipes (src/distributed/).
  kProcessShards,
};

inline const char* SampleBackendKindName(SampleBackendKind kind) {
  switch (kind) {
    case SampleBackendKind::kLocalThreads:
      return "local";
    case SampleBackendKind::kProcessShards:
      return "procs";
  }
  return "?";
}

/// What a process-shard coordinator does when a shard exhausts its retry
/// budget or the whole fleet becomes unusable.
enum class FallbackPolicy : uint8_t {
  /// Fail the fill with the latched shard error (the historical behavior).
  kNone,
  /// Degrade gracefully: regenerate the failed shard with an in-process
  /// LocalThreadBackend. Bit-identity is preserved by construction — RR
  /// set i is a pure function of (seed, i) regardless of who samples it.
  kLocal,
};

/// Backend selection and its process-shard knobs. Rides inside
/// SamplingConfig (and so every RunOptions) and ServingOptions;
/// `--backend=local` vs
/// `--backend=procs:N[:T][,fallback=local]` on the CLI. The choice never
/// changes results — only where the sampling work runs.
struct SampleBackendSpec {
  SampleBackendKind kind = SampleBackendKind::kLocalThreads;
  /// Process shards: number of worker subprocesses (0 → 1).
  unsigned num_workers = 0;
  /// Sampling threads inside each worker process (content is invariant).
  unsigned worker_threads = 1;
  /// Worker executable. Empty → $TIMPP_WORKER, else `im_worker` next to
  /// the current executable.
  std::string worker_binary;
  /// How workers obtain the graph: empty ships the coordinator's graph
  /// inline through the handshake (always correct, costs one serialized
  /// copy per worker); otherwise a graph-spec string (see
  /// distributed/graph_spec.h) each worker loads locally, verified
  /// against the coordinator via Graph::ContentHash.
  std::string graph_source;

  // ---- fault tolerance (process shards only) ----------------------------
  /// Per-shard frame I/O deadline in milliseconds; a worker that does not
  /// deliver within it is declared hung, killed, and its shard retried.
  /// 0 disables the deadline (reads block until data or EOF) — crashes
  /// are still detected instantly via EOF, only true hangs then wait
  /// forever.
  uint32_t shard_timeout_ms = 0;
  /// Retries per shard after its first failed attempt. 0 restores the
  /// fail-fast latch. Each retry respawns or reassigns the worker with
  /// capped exponential backoff.
  uint32_t max_shard_retries = 2;
  /// Base backoff before a retry; doubles per attempt, capped at
  /// `max_backoff_ms`.
  uint32_t retry_backoff_ms = 25;
  uint32_t max_backoff_ms = 1000;
  /// Consecutive failures before a worker slot is quarantined (no more
  /// respawns into it).
  uint32_t max_worker_failures = 3;
  /// What to do when retries are exhausted or the fleet is unusable.
  FallbackPolicy fallback = FallbackPolicy::kNone;
  /// Deterministic fault-injection spec shipped to workers (tests/bench
  /// only; see distributed/fault_injection.h for the grammar).
  std::string fault_spec;
};

/// Counters a fault-tolerant backend accumulates across fills; snapshot
/// via SampleBackend::stats(). All zero for healthy runs and for the
/// local backend. Solvers report per-run deltas through their metrics.
struct BackendStats {
  uint64_t shard_retries = 0;       // shard dispatches after a failure
  uint64_t worker_respawns = 0;     // replacement worker launches
  uint64_t shard_timeouts = 0;      // deadline-expired shard attempts
  uint64_t worker_crashes = 0;      // EOF/EPIPE: worker exited uncleanly
  uint64_t corrupt_frames = 0;      // truncated or validation-rejected
  uint64_t quarantined_workers = 0; // slots retired after repeat failures
  uint64_t fallback_shards = 0;     // shards regenerated locally
  uint64_t fallback_sets = 0;       // RR sets those shards contained

  bool any() const {
    return shard_retries | worker_respawns | shard_timeouts | worker_crashes |
           corrupt_frames | quarantined_workers | fallback_shards |
           fallback_sets;
  }
  BackendStats operator-(const BackendStats& other) const {
    BackendStats d;
    d.shard_retries = shard_retries - other.shard_retries;
    d.worker_respawns = worker_respawns - other.worker_respawns;
    d.shard_timeouts = shard_timeouts - other.shard_timeouts;
    d.worker_crashes = worker_crashes - other.worker_crashes;
    d.corrupt_frames = corrupt_frames - other.corrupt_frames;
    d.quarantined_workers = quarantined_workers - other.quarantined_workers;
    d.fallback_shards = fallback_shards - other.fallback_shards;
    d.fallback_sets = fallback_sets - other.fallback_sets;
    return d;
  }
};

/// Producer of RR sets for explicit global-index ranges. Not thread-safe:
/// the owning engine issues one Fill at a time (parallelism lives inside
/// the backend). Fill results stay valid until the next Fill.
class SampleBackend {
 public:
  /// One contiguous slice of a fill's output, living in a backend-owned
  /// buffer. chunks() yields them in global index order, so walking them
  /// walks the filled range exactly as a sequential loop would.
  struct Chunk {
    const RRCollection* sets = nullptr;
    /// Per-set edges_examined, aligned with *sets.
    const std::vector<uint64_t>* edges = nullptr;
    /// Per-set global indices (filtered fills only; nullptr → the chunk is
    /// index-contiguous and positions map 1:1 onto indices).
    const std::vector<uint64_t>* indices = nullptr;
    /// Set range [begin, end) within *sets belonging to this chunk.
    size_t begin = 0;
    size_t end = 0;
  };

  virtual ~SampleBackend() = default;

  /// Produces the RR sets of global indices [base, base + count), skipping
  /// indices `filter` (optional) rejects. On OK, chunks() exposes the
  /// result in index order. On error the previous fill's chunks are gone
  /// and the backend should be considered failed (the engine latches the
  /// status and stops sampling).
  virtual Status Fill(uint64_t base, uint64_t count,
                      const SampleFilter* filter) = 0;

  /// The last successful Fill's output, in global index order.
  virtual std::span<const Chunk> chunks() const = 0;

  /// Optional fast path: append sets [base, base + count) straight into
  /// `*out` without shard buffering, accumulating accounting into the
  /// given counters (and per-set edge counts into `per_set_edges` when
  /// non-null). Returns false when the backend cannot do this (parallel or
  /// remote fills); the engine then falls back to Fill + chunk merge.
  virtual bool AppendDirect(uint64_t base, uint64_t count, RRCollection* out,
                            uint64_t* edges_examined, uint64_t* traversal_cost,
                            std::vector<uint64_t>* per_set_edges) {
    (void)base, (void)count, (void)out;
    (void)edges_examined, (void)traversal_cost, (void)per_set_edges;
    return false;
  }

  /// Fault-tolerance counters accumulated so far (all zero for backends
  /// without failure handling). Safe to call concurrently with a running
  /// Fill — implementations keep the counters atomic — so serving-layer
  /// readers can snapshot while the writer samples.
  virtual BackendStats stats() const { return BackendStats(); }
};

/// RNG stream of global set index `i`: a splitmix64 hash of (seed, i)
/// seeding an xoshiro stream. THE determinism contract — every backend
/// (local threads, worker processes) derives set content from this and
/// nothing else, which is why shards merge bit-identically no matter who
/// produced them.
inline Rng SampleIndexRng(uint64_t seed, uint64_t index) {
  uint64_t state = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  return Rng(SplitMix64(state));
}

/// Builds the backend `config.sample_backend` asks for, forwarding the
/// engine's optional root distribution. Never returns null; a
/// misconfigured process-shard backend reports its error on first Fill
/// (workers are spawned lazily), so engine construction stays infallible.
std::unique_ptr<SampleBackend> CreateSampleBackend(
    const Graph& graph, const SamplingConfig& config,
    const AliasTable* root_distribution);

}  // namespace timpp

#endif  // TIMPP_ENGINE_SAMPLE_BACKEND_H_
