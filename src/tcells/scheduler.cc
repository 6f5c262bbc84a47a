#include "tcells/scheduler.h"

#include <optional>

namespace tcells {

QueryScheduler::QueryScheduler(size_t max_inflight, Runner runner)
    : max_inflight_(max_inflight), runner_(std::move(runner)) {
  workers_.reserve(max_inflight_);
  for (size_t i = 0; i < max_inflight_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() {
  std::deque<std::shared_ptr<internal::QueryJob>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    orphaned.swap(queue_);
  }
  // Queued jobs will never run: fail their waiters now, and ask running
  // jobs to stop at their next cancellation point.
  for (const auto& job : orphaned) {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->state == QueryState::kQueued) {
      job->state = QueryState::kCancelled;
      job->error = Status::Cancelled("scheduler shut down before the query ran");
      job->cv.notify_all();
    }
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Result<QueryHandle> QueryScheduler::Submit(
    std::shared_ptr<internal::QueryJob> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("scheduler is shut down");
    }
    queue_.push_back(job);
  }
  work_cv_.notify_one();
  return QueryHandle(std::move(job));
}

size_t QueryScheduler::NumQueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t QueryScheduler::NumRunning() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void QueryScheduler::WorkerLoop() {
  for (;;) {
    std::shared_ptr<internal::QueryJob> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
      running_ += 1;
    }

    bool run_it = false;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      // A queued job cancelled (or failed by shutdown) before pickup is
      // already terminal; never run it.
      if (job->state == QueryState::kQueued) {
        job->state = QueryState::kRunning;
        run_it = true;
      }
    }

    std::optional<Result<protocol::RunOutcome>> result;
    if (run_it) result.emplace(runner_(job.get()));

    // Free the slot before publishing the terminal state: a caller whose
    // Wait() returns must already find the slot free.
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_ -= 1;
    }

    if (result) {
      std::lock_guard<std::mutex> lock(job->mu);
      if (result->ok()) {
        job->state = QueryState::kDone;
        job->outcome = std::move(*result).ValueOrDie();
      } else if (result->status().IsCancelled()) {
        job->state = QueryState::kCancelled;
        job->error = result->status();
      } else {
        job->state = QueryState::kFailed;
        job->error = result->status();
      }
      job->cv.notify_all();
    }
  }
}

}  // namespace tcells
