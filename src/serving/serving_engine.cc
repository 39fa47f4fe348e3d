#include "serving/serving_engine.h"

#include <algorithm>
#include <utility>

#include "engine/solve_context.h"
#include "engine/solver_registry.h"
#include "serving/request_scheduler.h"

namespace timpp {

namespace {

/// Whether this run restored an estimation phase (TIM's KPT, IMM's LB)
/// from the PhaseCache — read off the result's own metrics, which a
/// concurrent request can't perturb (a global hit-counter delta could
/// attribute another in-flight request's hit to this one).
bool PhaseHitFromMetrics(const SolverResult& result) {
  return result.Metric("kpt_cache_hit", 0.0) == 1.0 ||
         result.Metric("lb_cache_hit", 0.0) == 1.0;
}

}  // namespace

ServingEngine::ServingEngine(const ServingOptions& options)
    : options_(options) {
  options_.num_threads = std::max(1u, options_.num_threads);
}

ServingEngine::~ServingEngine() = default;

Status ServingEngine::RegisterGraph(const std::string& name, Graph graph) {
  std::lock_guard<std::mutex> lock(mu_);
  if (contexts_.count(name) != 0) {
    return Status::InvalidArgument("graph already registered: " + name);
  }
  auto context =
      std::make_unique<GraphContext>(std::move(graph), options_.num_threads);
  context->set_cache_budget_bytes(options_.shared_cache_budget_bytes);
  contexts_.emplace(name, std::move(context));
  return Status::OK();
}

GraphContext* ServingEngine::Context(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = contexts_.find(name);
  return it == contexts_.end() ? nullptr : it->second.get();
}

ImResponse ServingEngine::Solve(const ImRequest& request) {
  GraphContext* context = Context(request.graph);
  if (context == nullptr) {
    ImResponse response;
    response.status =
        Status::NotFound("no graph registered as '" + request.graph + "'");
    return response;
  }
  // No per-context lock: requests run concurrently, sharing work through
  // the context's internally synchronized caches.
  return SolveOnContext(*context, request);
}

std::future<ImResponse> ServingEngine::Submit(const ImRequest& request) {
  std::call_once(scheduler_once_, [this] {
    RequestScheduler::Options options;
    options.num_workers = options_.submit_workers;
    options.max_pending = options_.max_pending_requests;
    scheduler_ = std::make_unique<RequestScheduler>(this, options);
  });
  return scheduler_->Submit(request);
}

RequestScheduler* ServingEngine::scheduler() { return scheduler_.get(); }

ImResponse ServingEngine::SolveOnContext(GraphContext& context,
                                         const ImRequest& request) {
  ImResponse response;
  std::unique_ptr<InfluenceSolver> solver;
  response.status = SolverRegistry::Global().Create(request.algo,
                                                    context.graph(), &solver);
  if (!response.status.ok()) return response;

  SolverOptions options = request;
  options.num_threads = options_.num_threads;
  // Budgeted requests, which run standalone below, spill to the
  // engine-wide spill dir.
  options.spill_dir = options_.spill_dir;

  // The shared stream only helps RR-set solvers; a per-request memory
  // budget contradicts a shared collection; and a caller-owned triggering
  // model must not be retained past the request (the caches would keep
  // its pointer alive context-lifetime — see ImRequest).
  // All three cases run the plain standalone path.
  if (!solver->UsesSolveContext() || request.memory_budget_bytes != 0 ||
      request.custom_model != nullptr) {
    response.status = solver->Run(options, &response.result);
    return response;
  }

  // The shared handle keeps the stream alive even if a concurrent
  // request's budget enforcement evicts it mid-read.
  std::shared_ptr<SharedRRCache> cache = context.AcquireStream(options);
  CachedSampleSource source(cache.get());
  SolveContext solve_context;
  solve_context.source = &source;
  solve_context.phase_cache = &context.phase_cache();

  response.status =
      solver->RunWithContext(options, solve_context, &response.result);
  response.rr_sets_reused = source.sets_reused();
  response.rr_sets_sampled = source.sets_sampled();
  response.phase_cache_hit = PhaseHitFromMetrics(response.result);
  context.EnforceCacheBudget();
  return response;
}

std::vector<ImResponse> ServingEngine::SolveBatch(
    std::span<const ImRequest> requests) {
  std::vector<ImResponse> responses;
  responses.reserve(requests.size());
  for (const ImRequest& request : requests) {
    responses.push_back(Solve(request));
  }
  return responses;
}

}  // namespace timpp
