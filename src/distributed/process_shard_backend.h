// ProcessShardBackend — RR sampling sharded across worker subprocesses.
//
// The coordinator half of the paper's §8 scale-out direction: each engine
// fill partitions its global index range into contiguous shards, one per
// worker process, dispatches them over pipes (all requests go out before
// any reply is read, so workers sample concurrently), and merges the
// returned serialized shards in shard order. Because every worker derives
// set content from the same per-index RNG contract (SampleIndexRng over a
// ContentHash-verified copy of the coordinator's graph), the merged batch
// is bit-identical to a local fill of the same indices — `--backend=
// procs:N` returns byte-for-byte the seeds/θ/LB of `--backend=local` at
// any worker count.
//
// Fleet lifecycle and failure recovery live in WorkerSupervisor
// (distributed/worker_supervisor.h): a worker that crashes, hangs past
// the shard deadline, or returns a corrupt frame gets its shard retried —
// on a respawned or different worker, with capped exponential backoff —
// and the per-index RNG contract makes every retry bit-identical. Only
// deterministic rejections (graph-hash mismatch, version skew, missing
// binary) and retry-budget exhaustion latch a fatal status; with
// FallbackPolicy::kLocal even exhaustion degrades gracefully by
// regenerating the failed shards in-process. stats() reports what the
// recovery machinery did.
#ifndef TIMPP_DISTRIBUTED_PROCESS_SHARD_BACKEND_H_
#define TIMPP_DISTRIBUTED_PROCESS_SHARD_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "distributed/worker_supervisor.h"
#include "engine/sample_backend.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "util/status.h"

namespace timpp {

class Graph;
class LocalThreadBackend;

class ProcessShardBackend final : public SampleBackend {
 public:
  /// `graph` must outlive the backend; `config` (including its
  /// backend spec) is copied. No processes are spawned until the first
  /// Fill. A non-null `root_distribution` cannot be shipped to workers:
  /// the first Fill then fails with Unimplemented.
  ProcessShardBackend(const Graph& graph, const SamplingConfig& config,
                      const AliasTable* root_distribution = nullptr);
  ~ProcessShardBackend() override;

  Status Fill(uint64_t base, uint64_t count,
              const SampleFilter* filter) override;
  std::span<const Chunk> chunks() const override { return chunk_views_; }
  BackendStats stats() const override;

  unsigned num_workers() const { return num_workers_; }

  /// Test hook: SIGKILLs worker `w` (spawning first if necessary) so crash
  /// handling can be exercised deterministically. With retries enabled
  /// (the default) the next Fill recovers and reports it in stats(); with
  /// max_shard_retries = 0 it must return an error, never truncated data.
  Status KillWorkerForTest(unsigned w);

  /// Resolution order for the worker executable: the spec's
  /// worker_binary, else $TIMPP_WORKER, else `im_worker` beside the
  /// current executable (/proc/self/exe). Exposed for diagnostics.
  static std::string ResolveWorkerBinary(const std::string& configured);

 private:
  /// One shard's merged result, exposed as a Chunk until the next Fill.
  struct ShardResult {
    RRCollection sets;
    std::vector<uint64_t> edges;
    std::vector<uint64_t> indices;  // filtered fills only
    explicit ShardResult(NodeId num_nodes) : sets(num_nodes) {}
  };

  /// Validates the config, serializes the graph, and constructs the
  /// supervisor (idempotent; spawns nothing).
  Status EnsureSupervisor();
  /// Regenerates one failed shard with an in-process LocalThreadBackend
  /// (FallbackPolicy::kLocal).
  Status FillShardLocally(const WorkerSupervisor::ShardRequest& request,
                          ShardResult* result);
  /// Marks the backend permanently failed and tears the fleet down.
  Status Fatal(Status status);

  const Graph& graph_;
  // The full sampling config, copied: the supervisor's hello prototype
  // and the local fallback backend both need it, and storing it by value
  // unties the backend from the engine's copy.
  SamplingConfig config_;
  bool weighted_roots_;
  unsigned num_workers_;
  unsigned worker_threads_;
  std::string worker_binary_;

  std::unique_ptr<WorkerSupervisor> supervisor_;
  // Release-published copy of supervisor_.get(): Fill runs on one thread,
  // but stats() is snapshotted concurrently by serving-layer metric
  // readers, which must never race the lazy construction above.
  std::atomic<const WorkerSupervisor*> supervisor_view_{nullptr};
  std::vector<std::unique_ptr<ShardResult>> shard_results_;
  std::vector<Chunk> chunk_views_;
  std::string graph_payload_;  // serialized once, shipped per handshake
  Status status_;

  std::unique_ptr<LocalThreadBackend> fallback_;
  std::atomic<uint64_t> fallback_shards_{0};
  std::atomic<uint64_t> fallback_sets_{0};
};

}  // namespace timpp

#endif  // TIMPP_DISTRIBUTED_PROCESS_SHARD_BACKEND_H_
