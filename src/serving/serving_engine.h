// ServingEngine — the request-serving layer on top of SolverRegistry.
//
// Register graphs once; submit (graph, algo, k, ε, …) requests — singly or
// in batches — and get back the exact result a standalone solver run with
// the same options would have produced, with the sampling and estimation
// work shared across requests through each graph's GraphContext
// (cross-request RR-sketch prefix reuse + KPT/LB memoization; see
// serving/graph_context.h). Every response reports its reuse accounting,
// so callers can see — and tests can assert — that a batch of N requests
// sampled fewer RR sets than N standalone runs.
//
// Concurrency model: Solve is thread-safe AND concurrent — requests
// against the same graph run in parallel, sharing the context's RR-sketch
// prefix through the lock-free single-writer/multi-reader SharedRRCache
// and the once-computing PhaseCache (serving/rr_cache.h,
// engine/phase_cache.h). Submit() adds an async path: a bounded admission
// queue feeding a worker crew, with overload shed at the door as
// Status::Unavailable. Responses are deterministic in the request options
// alone — independent of thread count, batch grouping, concurrency level,
// and arrival order, because the shared caches are monotone stream
// prefixes whose content depends only on indices. (The per-response reuse
// accounting — rr_sets_reused / rr_sets_sampled — reflects actual cache
// state at read time, so under concurrent execution it may attribute
// sampling work to a different overlapping request than a serial run
// would; the solver results themselves never move.)
#ifndef TIMPP_SERVING_SERVING_ENGINE_H_
#define TIMPP_SERVING_SERVING_ENGINE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "engine/solver.h"
#include "graph/graph.h"
#include "serving/graph_context.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Engine-wide settings.
struct ServingOptions {
  /// Sampling worker threads inside each request (results are invariant
  /// to this value; it is pure throughput).
  unsigned num_threads = 1;
  /// Byte cap (0 = unlimited) on each graph context's shared RR
  /// collections, enforced after every request by LRU eviction of whole
  /// streams (GraphContext::EnforceCacheBudget). A capped engine returns
  /// bit-identical responses — evicted streams are re-derived on demand —
  /// at the price of resampling.
  size_t shared_cache_budget_bytes = 0;
  /// Parent directory for the out-of-core spill tier (empty = none).
  /// Two effects: budget evictions of shared streams write the victim's
  /// prefix to disk and the re-created stream preloads it instead of
  /// resampling (GraphContext::set_spill_dir), and budgeted standalone
  /// requests spill their non-resident RR ranges there instead of
  /// regenerating per greedy round (SolverOptions::spill_dir). Responses
  /// stay bit-identical either way.
  std::string spill_dir;
  /// Concurrent request workers behind Submit() (0 = hardware
  /// concurrency). Created lazily on the first Submit; the synchronous
  /// Solve/SolveBatch paths never start them.
  unsigned submit_workers = 0;
  /// Admission bound for Submit(): queued-but-unstarted requests past
  /// this are rejected with Status::Unavailable (0 = unbounded).
  size_t max_pending_requests = 1024;
};

/// One influence-maximization request: SolverOptions plus routing.
///
/// The run knobs num_threads and spill_dir are engine-wide: ServingEngine
/// overwrites them from ServingOptions, so setting them here has no
/// effect. A request with a memory budget runs standalone (no
/// shared-collection reuse): the budget caps THIS request's resident
/// bytes, which a shared collection would make meaningless. So
/// does one with a custom_model (borrowed; must outlive the request), so
/// that the shared caches never retain the caller's pointer past it. Seeds
/// match the equivalent standalone run either way.
struct ImRequest : SolverOptions {
  /// Registered graph name.
  std::string graph;
  /// Registry solver name ("tim+", "imm", "ris", "celf", ...).
  std::string algo = "tim+";
};

/// One request's outcome. `result` is meaningful only when status is OK.
struct ImResponse {
  Status status;
  SolverResult result;
  /// RR sets this request consumed that were already in the shared
  /// collection (zero work), vs freshly sampled on its behalf (work paid
  /// once, reusable by later requests). Standalone-path requests
  /// (budgeted, or non-RR algorithms) report 0/0.
  uint64_t rr_sets_reused = 0;
  uint64_t rr_sets_sampled = 0;
  /// An estimation phase (TIM's KPT, IMM's LB) was served from the
  /// context's PhaseCache.
  bool phase_cache_hit = false;
};

class RequestScheduler;

/// Thread-safe multi-graph request server.
class ServingEngine {
 public:
  explicit ServingEngine(const ServingOptions& options = {});
  /// Stops admission, drains every Submit already admitted, joins the
  /// workers.
  ~ServingEngine();

  /// Takes ownership of `graph` under `name`. InvalidArgument on
  /// duplicate names.
  Status RegisterGraph(const std::string& name, Graph graph);

  /// The context registered under `name` (nullptr if unknown). Owned by
  /// the engine; useful for accounting and cache management.
  GraphContext* Context(const std::string& name);

  /// Solves one request (blocking). Never throws; failures come back in
  /// ImResponse::status. Safe to call from any number of threads
  /// concurrently — same-graph requests share work through the context
  /// caches while they run in parallel.
  ImResponse Solve(const ImRequest& request);

  /// Async path: enqueues the request for the worker crew and returns a
  /// future. The future resolves with the solved response — or
  /// immediately with Status::Unavailable when the admission queue is at
  /// max_pending_requests (overload shedding). Workers start lazily on
  /// the first Submit.
  std::future<ImResponse> Submit(const ImRequest& request);

  /// Solves a batch one request at a time, in request order, on the
  /// calling thread, which keeps per-response reuse accounting
  /// deterministic. Use Submit (or concurrent Solve calls) to run
  /// requests concurrently.
  std::vector<ImResponse> SolveBatch(std::span<const ImRequest> requests);

  /// The scheduler behind Submit (accounting: rejected/completed).
  /// nullptr until the first Submit.
  RequestScheduler* scheduler();

 private:
  ImResponse SolveOnContext(GraphContext& context, const ImRequest& request);

  ServingOptions options_;
  std::mutex mu_;  // guards contexts_ (map shape; contexts self-lock)
  std::map<std::string, std::unique_ptr<GraphContext>> contexts_;
  std::once_flag scheduler_once_;
  std::unique_ptr<RequestScheduler> scheduler_;
};

}  // namespace timpp

#endif  // TIMPP_SERVING_SERVING_ENGINE_H_
