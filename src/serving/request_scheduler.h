// RequestScheduler — the ServingEngine's async admission queue + workers.
//
// Submit() enqueues a request and returns a future; a fixed crew of
// plain worker threads, each looping over the queue, drains it by calling
// the engine's synchronous Solve, which runs requests truly concurrently
// against the shared per-graph caches. Admission is bounded: once
// `max_pending` requests are queued, further Submits are rejected
// immediately with Status::Unavailable — load shedding at the door
// instead of unbounded latency inside. Responses are deterministic in the
// request options alone, so the completion order of concurrent requests
// never changes what any of them returns.
//
// Lifecycle: the destructor stops admission, drains every request already
// admitted (a returned future is a promise kept), then joins the workers.
#ifndef TIMPP_SERVING_REQUEST_SCHEDULER_H_
#define TIMPP_SERVING_REQUEST_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serving/serving_engine.h"

namespace timpp {

class RequestScheduler {
 public:
  struct Options {
    /// Concurrent request workers (0 = hardware concurrency). Each worker
    /// runs one request at a time; a request's own sampling parallelism
    /// (ServingOptions::num_threads) multiplies on top.
    unsigned num_workers = 0;
    /// Admission bound: queued-but-unstarted requests past this are
    /// rejected with Status::Unavailable (0 = unbounded).
    size_t max_pending = 0;
  };

  /// `engine` must outlive the scheduler (the engine owns it).
  RequestScheduler(ServingEngine* engine, const Options& options);
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Enqueues the request. The future resolves with the solved response,
  /// or immediately with Status::Unavailable when the admission queue is
  /// full (overload) or the scheduler is shutting down.
  std::future<ImResponse> Submit(ImRequest request);

  unsigned num_workers() const { return num_workers_; }
  /// Requests rejected at admission since construction.
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Requests whose futures have been fulfilled.
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    ImRequest request;
    std::promise<ImResponse> promise;
  };

  /// One worker: drain jobs until shutdown AND the queue is empty.
  void WorkerLoop();

  ServingEngine* engine_;
  unsigned num_workers_;
  size_t max_pending_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> queue_;  // guarded by mu_
  bool shutdown_ = false;  // guarded by mu_

  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};

  // Each runs WorkerLoop until shutdown with a drained queue.
  std::vector<std::thread> workers_;
};

}  // namespace timpp

#endif  // TIMPP_SERVING_REQUEST_SCHEDULER_H_
