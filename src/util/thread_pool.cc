#include "util/thread_pool.h"

namespace timpp {

ThreadPool::ThreadPool(unsigned num_workers) {
  threads_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ParallelRun(unsigned num_tasks,
                             const std::function<void(unsigned)>& fn) {
  if (num_tasks == 0) return;
  if (threads_.empty() || num_tasks == 1) {
    for (unsigned i = 0; i < num_tasks; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    completed_ = 0;
    ++generation_;
    const uint64_t gen = generation_ << 32;
    fn_.store(&fn, std::memory_order_relaxed);
    round_.store(gen | num_tasks, std::memory_order_relaxed);
    // Release last: a claim that reads this round's counter value is
    // guaranteed to see this round's fn_ and round_ as well.
    claim_.store(gen, std::memory_order_release);
  }
  work_cv_.notify_all();
  RunTasks();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return completed_ == num_tasks; });
  fn_.store(nullptr, std::memory_order_relaxed);
}

void ThreadPool::RunTasks() {
  while (true) {
    const uint64_t claim = claim_.fetch_add(1, std::memory_order_acq_rel);
    const uint64_t round = round_.load(std::memory_order_acquire);
    if ((claim >> 32) != (round >> 32)) {
      // The claim came from a round that has since finished (every index of
      // it was handed out, or we'd still match): nothing left to do here.
      // The counter we bumped belongs to no live round, so the increment is
      // harmless.
      return;
    }
    const uint32_t i = static_cast<uint32_t>(claim);
    const uint32_t total = static_cast<uint32_t>(round);
    if (i >= total) return;
    const auto* fn = fn_.load(std::memory_order_relaxed);
    (*fn)(i);
    std::lock_guard<std::mutex> lock(mu_);
    if (++completed_ == total) done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    RunTasks();
  }
}

}  // namespace timpp
