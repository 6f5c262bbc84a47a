// QueryHandle: the async face of one submitted query.
//
// Engine::Submit enqueues a query with the scheduler and returns a handle;
// the caller polls Status(), blocks on Wait(), or requests cooperative
// Cancel(). Engine::Run is submit-then-wait. Handles are cheap shared
// references to the job's state — copyable, and safe to keep past the
// query's completion (Wait simply returns the stored outcome again).
#ifndef TCELLS_TCELLS_QUERY_HANDLE_H_
#define TCELLS_TCELLS_QUERY_HANDLE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/result.h"
#include "protocol/protocols.h"

namespace tcells {

/// Lifecycle of a submitted query.
enum class QueryState {
  kQueued,     ///< admitted, waiting for a scheduler slot
  kRunning,    ///< a worker is executing the protocol phases
  kDone,       ///< finished; Wait() returns the outcome
  kFailed,     ///< finished with an error; Wait() returns it
  kCancelled,  ///< cancelled before or during execution
};

namespace internal {

/// Shared state between a QueryHandle and the scheduler worker running the
/// query. The mutex guards state/outcome/error; `cancel` is the cooperative
/// flag the run checks at its serial boundaries (RunOptions::cancel).
struct QueryJob {
  uint64_t query_id = 0;
  protocol::Protocol* protocol = nullptr;
  const protocol::Querier* querier = nullptr;
  std::string sql;
  std::optional<uint64_t> personal_tds;
  protocol::RunOptions options;

  std::atomic<bool> cancel{false};

  std::mutex mu;
  std::condition_variable cv;
  QueryState state = QueryState::kQueued;
  std::optional<protocol::RunOutcome> outcome;  ///< set iff state == kDone
  ::tcells::Status error;  ///< set iff state == kFailed / kCancelled
};

}  // namespace internal

class QueryHandle {
 public:
  /// An empty handle; valid() is false and every other call is unusable.
  QueryHandle() = default;

  bool valid() const { return job_ != nullptr; }
  uint64_t query_id() const { return job_->query_id; }

  /// Current lifecycle state (non-blocking).
  QueryState Status() const {
    std::lock_guard<std::mutex> lock(job_->mu);
    return job_->state;
  }

  /// True once the query reached a terminal state.
  bool Finished() const {
    QueryState s = Status();
    return s == QueryState::kDone || s == QueryState::kFailed ||
           s == QueryState::kCancelled;
  }

  /// Blocks until the query reaches a terminal state and returns its
  /// outcome (or the failure / Cancelled status). Idempotent: repeated
  /// waits return the same stored result.
  Result<protocol::RunOutcome> Wait() {
    std::unique_lock<std::mutex> lock(job_->mu);
    job_->cv.wait(lock, [&] {
      return job_->state == QueryState::kDone ||
             job_->state == QueryState::kFailed ||
             job_->state == QueryState::kCancelled;
    });
    if (job_->state == QueryState::kDone) return *job_->outcome;
    return job_->error;
  }

  /// Requests cooperative cancellation: a queued job is cancelled before it
  /// ever runs; a running job stops at its next serial boundary (collection
  /// tick / round edge) and Wait() returns Status::Cancelled. Idempotent;
  /// a no-op once the query already finished.
  void Cancel() {
    job_->cancel.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(job_->mu);
    if (job_->state == QueryState::kQueued) {
      job_->state = QueryState::kCancelled;
      job_->error = ::tcells::Status::Cancelled("query cancelled while queued");
      job_->cv.notify_all();
    }
  }

 private:
  friend class QueryScheduler;
  explicit QueryHandle(std::shared_ptr<internal::QueryJob> job)
      : job_(std::move(job)) {}

  std::shared_ptr<internal::QueryJob> job_;
};

}  // namespace tcells

#endif  // TCELLS_TCELLS_QUERY_HANDLE_H_
