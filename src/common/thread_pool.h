// Fixed-size worker pool for deterministic fleet fan-out. Deliberately
// work-stealing-free: ParallelFor hands out indices from a single atomic
// counter and the *caller participates* in draining it, so a pool that is
// busy (or has size 1) degenerates to an inline loop instead of deadlocking.
// Determinism is the callers' job — tasks write to disjoint per-index slots
// and draw randomness from per-index Rng streams keyed by identity —
// the pool only guarantees that every index runs exactly once and that the
// lowest-index exception is rethrown after all tasks finished.
#ifndef TCELLS_COMMON_THREAD_POOL_H_
#define TCELLS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcells {

class ThreadPool {
 public:
  /// `num_threads` is clamped to >= 1. A pool of size 1 spawns no worker
  /// threads at all: every ParallelFor runs inline on the calling thread.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count the pool was built with (callers included, so a size-N
  /// pool runs a ParallelFor on up to N threads: N-1 workers + the caller).
  size_t size() const { return num_threads_; }

  /// Maps the conventional "0 = auto" knob to a concrete thread count:
  /// 0 -> std::thread::hardware_concurrency() (at least 1), else `requested`.
  static size_t ResolveThreads(size_t requested);

  /// Runs fn(0), ..., fn(n-1), blocking until every invocation finished.
  /// Invocations may run concurrently and in any order; callers must make
  /// tasks independent (disjoint output slots, keyed Rng streams).
  /// Every index runs even if an earlier one threw; after all finished, the
  /// exception thrown by the lowest index (if any) is rethrown. This matches
  /// the serial inline path exactly, keeping side effects (e.g. leak-log
  /// contents) identical between serial and parallel execution.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  size_t num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace tcells

#endif  // TCELLS_COMMON_THREAD_POOL_H_
