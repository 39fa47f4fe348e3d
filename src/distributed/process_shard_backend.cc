#include "distributed/process_shard_backend.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "distributed/worker_protocol.h"
#include "engine/local_thread_backend.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "rrset/rr_serialization.h"

namespace timpp {

namespace {

std::string DirName(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

}  // namespace

std::string ProcessShardBackend::ResolveWorkerBinary(
    const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("TIMPP_WORKER");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    return DirName(self) + "/im_worker";
  }
  return "im_worker";  // last resort: PATH lookup
}

ProcessShardBackend::ProcessShardBackend(const Graph& graph,
                                         const SamplingConfig& config,
                                         const AliasTable* root_distribution)
    : graph_(graph),
      config_(config),
      weighted_roots_(root_distribution != nullptr),
      // Capped defensively: API callers bypass the CLI's parse validation,
      // and a wrapped negative would otherwise fork-bomb the host.
      num_workers_(
          std::min(256u, std::max(1u, config.sample_backend.num_workers))),
      worker_threads_(std::max(1u, config.sample_backend.worker_threads)),
      worker_binary_(
          ResolveWorkerBinary(config.sample_backend.worker_binary)) {}

ProcessShardBackend::~ProcessShardBackend() = default;

Status ProcessShardBackend::Fatal(Status status) {
  status_ = std::move(status);
  // Failed workers were killed and reaped the moment they failed; healthy
  // ones idle until the destructor's graceful shutdown. The supervisor
  // object stays alive — every subsequent Fill fails fast on status_, and
  // concurrent stats() readers (serving-layer metric snapshots) must not
  // see it vanish under them.
  chunk_views_.clear();
  return status_;
}

Status ProcessShardBackend::EnsureSupervisor() {
  TIMPP_RETURN_NOT_OK(status_);
  if (supervisor_ != nullptr) return Status::OK();
  if (config_.custom_model != nullptr) {
    return Fatal(Status::Unimplemented(
        "process-shard backend cannot ship a custom TriggeringModel to "
        "worker processes; use backend=local for kTriggering runs"));
  }
  if (weighted_roots_) {
    return Fatal(Status::Unimplemented(
        "process-shard backend cannot ship a root distribution "
        "(node-weighted runs); use backend=local"));
  }
  const std::string& graph_source = config_.sample_backend.graph_source;
  if (graph_source.empty() && graph_payload_.empty()) {
    SerializeGraph(graph_, &graph_payload_);
  }
  // The frame layer caps payloads at 2 GiB; a graph image past that would
  // be rejected worker-side with a generic "died during handshake". Fail
  // here with the actual cause and the way out (spec transport reloads
  // from disk, no size limit).
  if (graph_source.empty() && graph_payload_.size() > (uint64_t{1} << 31)) {
    return Fatal(Status::InvalidArgument(
        "graph too large for inline worker handshake (" +
        std::to_string(graph_payload_.size()) +
        " bytes serialized); provide SampleBackendSpec::graph_source so "
        "workers reload it from storage instead"));
  }

  wire::Hello hello;
  hello.model = static_cast<uint8_t>(config_.model);
  hello.sampler_mode = static_cast<uint8_t>(config_.sampler_mode);
  hello.max_hops = config_.max_hops;
  hello.seed = config_.seed;
  hello.worker_threads = worker_threads_;
  hello.graph_hash = graph_.ContentHash();
  hello.fault_spec = config_.sample_backend.fault_spec;
  if (graph_source.empty()) {
    hello.graph_transport = wire::GraphTransport::kInline;
    hello.graph_payload = graph_payload_;
  } else {
    hello.graph_transport = wire::GraphTransport::kSpec;
    hello.graph_payload = graph_source;
  }

  SupervisorOptions options;
  options.num_workers = num_workers_;
  options.worker_binary = worker_binary_;
  options.shard_timeout_ms = config_.sample_backend.shard_timeout_ms;
  options.max_shard_retries = config_.sample_backend.max_shard_retries;
  options.retry_backoff_ms = config_.sample_backend.retry_backoff_ms;
  options.max_backoff_ms = config_.sample_backend.max_backoff_ms;
  options.max_worker_failures = config_.sample_backend.max_worker_failures;
  supervisor_ = std::make_unique<WorkerSupervisor>(std::move(options),
                                                   std::move(hello));
  supervisor_view_.store(supervisor_.get(), std::memory_order_release);
  return Status::OK();
}

Status ProcessShardBackend::FillShardLocally(
    const WorkerSupervisor::ShardRequest& request, ShardResult* result) {
  fallback_shards_.fetch_add(1, std::memory_order_relaxed);
  fallback_sets_.fetch_add(
      request.is_list ? request.indices.size() : request.count,
      std::memory_order_relaxed);
  if (fallback_ == nullptr) {
    // The fallback samples with the worker's thread budget — it stands in
    // for exactly one worker process worth of capacity. Bit-identity is
    // the per-index RNG contract's job, not the thread count's.
    SamplingConfig local = config_;
    local.sample_backend = SampleBackendSpec();
    local.num_threads = worker_threads_;
    fallback_ = std::make_unique<LocalThreadBackend>(graph_, local);
  }
  TIMPP_RETURN_NOT_OK(request.is_list
                          ? fallback_->FillList(request.indices)
                          : fallback_->Fill(request.first, request.count,
                                            nullptr));
  result->sets.Clear();
  result->edges.clear();
  for (const Chunk& chunk : fallback_->chunks()) {
    result->sets.AppendRange(*chunk.sets, chunk.begin,
                             chunk.end - chunk.begin);
    result->edges.insert(result->edges.end(), chunk.edges->begin() + chunk.begin,
                         chunk.edges->begin() + chunk.end);
  }
  return Status::OK();
}

Status ProcessShardBackend::Fill(uint64_t base, uint64_t count,
                                 const SampleFilter* filter) {
  TIMPP_RETURN_NOT_OK(EnsureSupervisor());
  chunk_views_.clear();
  if (count == 0) return Status::OK();

  // Partition into one contiguous shard per worker (balanced rounding).
  // Filtered fills evaluate the filter HERE — the coordinator owns the
  // filter state (e.g. dead-set bits) — and ship each worker its slice of
  // the accepted indices.
  std::vector<uint64_t> accepted;
  if (filter != nullptr) {
    accepted.reserve(count);
    for (uint64_t i = base; i < base + count; ++i) {
      if ((*filter)(i)) accepted.push_back(i);
    }
  }
  const uint64_t total = filter != nullptr
                             ? static_cast<uint64_t>(accepted.size())
                             : count;

  std::vector<WorkerSupervisor::ShardRequest> requests;
  std::vector<uint64_t> expected_sets;
  requests.reserve(num_workers_);
  for (unsigned w = 0; w < num_workers_; ++w) {
    const uint64_t begin = total * w / num_workers_;
    const uint64_t end = total * (w + 1) / num_workers_;
    if (begin == end) continue;
    WorkerSupervisor::ShardRequest request;
    if (filter == nullptr) {
      request.first = base + begin;
      request.count = end - begin;
    } else {
      request.is_list = true;
      request.indices.assign(accepted.begin() + begin, accepted.begin() + end);
    }
    requests.push_back(std::move(request));
    expected_sets.push_back(end - begin);
  }

  // Per-shard result buffers (reused across fills when counts allow).
  while (shard_results_.size() < requests.size()) {
    shard_results_.push_back(
        std::make_unique<ShardResult>(graph_.num_nodes()));
  }

  const WorkerSupervisor::ShardConsumer consume =
      [&](size_t s, const std::string& payload) -> Status {
    ShardResult& result = *shard_results_[s];
    result.sets.Clear();
    result.edges.clear();
    RRShardInfo info;
    TIMPP_RETURN_NOT_OK(DeserializeRRShard(payload, graph_.num_nodes(),
                                           &result.sets, &result.edges,
                                           &info));
    if (info.num_sets != expected_sets[s]) {
      return Status::Corruption("returned " + std::to_string(info.num_sets) +
                                " sets for a " +
                                std::to_string(expected_sets[s]) +
                                "-set shard");
    }
    return Status::OK();
  };

  std::vector<Status> outcomes;
  const Status fleet = supervisor_->ExecuteShards(requests, consume,
                                                  &outcomes);
  if (!fleet.ok()) return Fatal(fleet);

  for (size_t s = 0; s < requests.size(); ++s) {
    if (outcomes[s].ok()) continue;
    if (config_.sample_backend.fallback != FallbackPolicy::kLocal) {
      return Fatal(std::move(outcomes[s]));
    }
    // Graceful degradation: regenerate the shard in-process. Identical
    // bits by the per-index RNG contract; only the CPU placement changes.
    const Status local = FillShardLocally(requests[s], shard_results_[s].get());
    if (!local.ok()) return Fatal(local);
  }

  for (size_t s = 0; s < requests.size(); ++s) {
    ShardResult& result = *shard_results_[s];
    if (filter != nullptr) {
      result.indices = requests[s].indices;
    } else {
      result.indices.clear();
    }
    Chunk chunk;
    chunk.sets = &result.sets;
    chunk.edges = &result.edges;
    chunk.indices = filter != nullptr ? &result.indices : nullptr;
    chunk.begin = 0;
    chunk.end = result.sets.num_sets();
    chunk_views_.push_back(chunk);
  }
  return Status::OK();
}

BackendStats ProcessShardBackend::stats() const {
  BackendStats out;
  if (const WorkerSupervisor* supervisor =
          supervisor_view_.load(std::memory_order_acquire)) {
    out = supervisor->stats();
  }
  out.fallback_shards = fallback_shards_.load(std::memory_order_relaxed);
  out.fallback_sets = fallback_sets_.load(std::memory_order_relaxed);
  return out;
}

Status ProcessShardBackend::KillWorkerForTest(unsigned w) {
  TIMPP_RETURN_NOT_OK(EnsureSupervisor());
  return supervisor_->KillWorkerForTest(w);
}

}  // namespace timpp
