// QueryScheduler: fair slot allocation for concurrent queries.
//
// A fixed pool of `max_inflight` worker threads drains a FIFO queue — FCFS
// is the fairness policy: no submitted query can be overtaken, so a burst of
// cheap queries cannot starve an expensive one that arrived first. Submit
// accepts every query and lets the backlog grow.
//
// The scheduler knows nothing about protocols: the Engine hands it a runner
// callback that executes one job (a one-query QuerySession against the
// engine's sharded SSI stack) and cleans up after failures. Determinism is
// the runner's concern — each query's randomness derives only from its own
// seed, so scheduling order can never reach the bits of a result.
#ifndef TCELLS_TCELLS_SCHEDULER_H_
#define TCELLS_TCELLS_SCHEDULER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tcells/query_handle.h"

namespace tcells {

class QueryScheduler {
 public:
  /// Executes one job to completion. Runs on a worker thread; must be
  /// thread-safe across concurrent jobs.
  using Runner = std::function<Result<protocol::RunOutcome>(
      internal::QueryJob* job)>;

  /// Starts `max_inflight` worker threads (must be >= 1).
  QueryScheduler(size_t max_inflight, Runner runner);

  /// Cancels queued jobs, waits for running ones to stop at their next
  /// cancellation point, and joins the workers.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Admits a job (FIFO); it runs when a slot frees up. Fails only once
  /// the scheduler is shutting down.
  Result<QueryHandle> Submit(std::shared_ptr<internal::QueryJob> job);

  size_t max_inflight() const { return max_inflight_; }
  /// Jobs admitted but not yet picked up by a worker.
  size_t NumQueued() const;
  /// Jobs currently executing on a worker.
  size_t NumRunning() const;

 private:
  void WorkerLoop();

  const size_t max_inflight_;
  const Runner runner_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<internal::QueryJob>> queue_;
  size_t running_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tcells

#endif  // TCELLS_TCELLS_SCHEDULER_H_
