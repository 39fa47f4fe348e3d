#include "serving/request_scheduler.h"

#include <algorithm>
#include <utility>

namespace timpp {

RequestScheduler::RequestScheduler(ServingEngine* engine,
                                   const Options& options)
    : engine_(engine),
      num_workers_(options.num_workers != 0
                       ? options.num_workers
                       : std::max(1u, std::thread::hardware_concurrency())),
      max_pending_(options.max_pending) {
  workers_.reserve(num_workers_);
  for (unsigned w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RequestScheduler::~RequestScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  // Workers drain what was admitted, then exit; futures already handed
  // out all resolve before the joins return.
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<ImResponse> RequestScheduler::Submit(ImRequest request) {
  Job job;
  job.request = std::move(request);
  std::future<ImResponse> future = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      ImResponse response;
      response.status = Status::Unavailable("serving engine shutting down");
      job.promise.set_value(std::move(response));
      return future;
    }
    if (max_pending_ != 0 && queue_.size() >= max_pending_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      ImResponse response;
      response.status = Status::Unavailable(
          "admission queue full (" + std::to_string(max_pending_) +
          " pending requests)");
      job.promise.set_value(std::move(response));
      return future;
    }
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
  return future;
}

void RequestScheduler::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job.promise.set_value(engine_->Solve(job.request));
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace timpp
