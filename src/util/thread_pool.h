// Persistent worker-thread pool: the library's one fork-join primitive.
//
// The pool keeps its threads alive between rounds so hot loops (RR-set
// batch sampling, the index build, the streaming greedy's passes) pay
// thread-start cost once per run instead of once per batch; a solve runs
// all of them on its engine's pool, and a Monte-Carlo estimate runs on a
// pool of its own for the one call. Work is dispatched as an indexed task
// set: ParallelRun(t, fn) invokes fn(0), ..., fn(t-1) exactly once each,
// spread over the workers plus the calling thread, and returns when all
// invocations have finished. Task claiming is dynamic (atomic counter),
// so callers that need deterministic output must make each task's result
// depend only on its index — the sampling engine's per-index RNG
// derivation is the canonical example.
#ifndef TIMPP_UTIL_THREAD_POOL_H_
#define TIMPP_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace timpp {

/// Fixed-size pool of background workers. Not copyable or movable; one
/// ParallelRun may be active at a time (calls are blocking, so any
/// single-threaded caller satisfies this automatically).
class ThreadPool {
 public:
  /// Spawns `num_workers` background threads. 0 is valid: ParallelRun then
  /// executes every task inline on the calling thread.
  explicit ThreadPool(unsigned num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of background threads (the calling thread adds one more unit of
  /// parallelism during ParallelRun).
  unsigned num_workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Runs fn(i) for every i in [0, num_tasks), distributing invocations over
  /// the workers and the calling thread; blocks until all have returned.
  void ParallelRun(unsigned num_tasks, const std::function<void(unsigned)>& fn);

 private:
  void WorkerLoop();
  /// Claims and runs tasks of the current round until none remain.
  void RunTasks();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<const std::function<void(unsigned)>*> fn_{nullptr};
  // Round state packed as (generation << 32) | payload so a claim can be
  // validated against the round it was made in: a worker straggling out of
  // a finished round whose fetch_add races the next round's setup sees a
  // generation mismatch and retires instead of mis-claiming an index.
  std::atomic<uint64_t> round_{0};  // (generation << 32) | num_tasks
  std::atomic<uint64_t> claim_{0};  // (generation << 32) | next index
  unsigned completed_ = 0;   // guarded by mu_
  uint64_t generation_ = 0;  // guarded by mu_
  bool shutdown_ = false;    // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace timpp

#endif  // TIMPP_UTIL_THREAD_POOL_H_
