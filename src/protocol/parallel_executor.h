// ParallelExecutor: the protocol layer's fan-out primitive, a fixed-size
// worker pool with Status-based error handling. One executor lives in each
// QuerySession and is shared by every phase of its query: the collection
// pass over the fleet, the aggregation merge rounds (S_Agg levels, Noise
// per-group partitions, ED_Hist bucket steps) and the filtering pass. The
// phases run one after another, never concurrently on the same executor.
//
// Deliberately work-stealing-free: ForEachIndex hands out indices from a
// single atomic counter and the *caller participates* in draining it, so an
// executor that is busy (or has one thread) degenerates to an inline loop
// instead of deadlocking, and a job may itself fan out on the same executor.
//
// Determinism contract: jobs must be independent (disjoint output slots,
// per-index Rng streams keyed by identity, Rng::Keyed) so that every
// thread count — including 1 — produces bit-identical results. All jobs run
// even when one fails; the lowest-index failure is reported, matching what a
// serial sweep that never short-circuits would report.
#ifndef TCELLS_PROTOCOL_PARALLEL_EXECUTOR_H_
#define TCELLS_PROTOCOL_PARALLEL_EXECUTOR_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"

namespace tcells::protocol {

class ParallelExecutor {
 public:
  /// `num_threads`: 1 = serial (no threads spawned), 0 = hardware
  /// concurrency, N = exactly N including the calling thread.
  explicit ParallelExecutor(size_t num_threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  size_t num_threads() const { return num_threads_; }
  bool parallel() const { return num_threads_ > 1; }

  /// Runs job(0..n-1) to completion (serially in index order with one
  /// thread, concurrently otherwise) and reports the failure of the lowest
  /// failing index: its non-OK status is returned, or the exception it
  /// threw is rethrown. Returns OK when every job did. Never
  /// short-circuits: side effects are identical across thread counts even
  /// on error paths.
  Status ForEachIndex(size_t n, const std::function<Status(size_t)>& job);

 private:
  void WorkerLoop();

  size_t num_threads_;
  std::mutex mu_;  // guards tasks_ and stop_
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  // Last, so the members the workers use outlive them.
  std::vector<std::thread> workers_;
};

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_PARALLEL_EXECUTOR_H_
