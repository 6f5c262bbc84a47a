// ParallelExecutor: the protocol layer's fan-out primitive, wrapping a
// ThreadPool with Status-based (instead of exception-based) error handling.
// One executor lives in each QuerySession and is shared by every phase of
// its query: the collection pass over the fleet, the aggregation merge
// rounds (S_Agg levels, Noise per-group partitions, ED_Hist bucket steps)
// and the filtering pass. The phases run one after another, never
// concurrently on the same executor.
//
// Determinism contract: jobs must be independent (disjoint output slots,
// per-index Rng streams keyed by identity, Rng::Keyed) so that every
// thread count — including 1 — produces bit-identical results. All jobs run
// even when one fails; the lowest-index failure is reported, matching what a
// serial sweep that never short-circuits would report.
#ifndef TCELLS_PROTOCOL_PARALLEL_EXECUTOR_H_
#define TCELLS_PROTOCOL_PARALLEL_EXECUTOR_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"

namespace tcells::protocol {

class ParallelExecutor {
 public:
  /// `num_threads`: 1 = serial (no threads spawned), 0 = hardware
  /// concurrency, N = exactly N including the calling thread.
  explicit ParallelExecutor(size_t num_threads)
      : pool_(ThreadPool::ResolveThreads(num_threads)) {}

  size_t num_threads() const { return pool_.size(); }
  bool parallel() const { return pool_.size() > 1; }

  /// Runs job(0..n-1) to completion (serially in index order when the pool
  /// has size 1, concurrently otherwise) and returns the non-OK status of the
  /// lowest index, or OK. Never short-circuits: side effects are identical
  /// across thread counts even on error paths.
  Status ForEachIndex(size_t n, const std::function<Status(size_t)>& job);

 private:
  ThreadPool pool_;
};

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_PARALLEL_EXECUTOR_H_
