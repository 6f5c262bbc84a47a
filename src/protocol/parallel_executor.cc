#include "protocol/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace tcells::protocol {
namespace {

size_t ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace

ParallelExecutor::ParallelExecutor(size_t num_threads)
    : num_threads_(ResolveThreads(num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (size_t i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ with a drained queue
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

Status ParallelExecutor::ForEachIndex(
    size_t n, const std::function<Status(size_t)>& job) {
  if (n == 0) return Status::OK();

  // Shared fan-out state. Runner closures may outlive this call on the queue
  // (they become no-ops once every index is claimed), hence the shared_ptr;
  // `job` and `statuses` are only touched for claimed indices, all of which
  // complete before ForEachIndex returns, so the pointers stay valid.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> remaining;
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::exception_ptr error;
    size_t error_index = 0;
  };
  auto state = std::make_shared<State>();
  state->remaining.store(n, std::memory_order_relaxed);

  std::vector<Status> statuses(n);
  const std::function<Status(size_t)>* job_ptr = &job;
  Status* status_ptr = statuses.data();
  auto drain = [state, job_ptr, status_ptr, n] {
    for (;;) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        status_ptr[i] = (*job_ptr)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->done_mu);
        if (!state->error || i < state->error_index) {
          state->error = std::current_exception();
          state->error_index = i;
        }
      }
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->done_mu);
        state->done_cv.notify_all();
      }
    }
  };

  if (!workers_.empty() && n > 1) {
    size_t helpers = std::min(workers_.size(), n - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < helpers; ++i) tasks_.push_back(drain);
    }
    work_cv_.notify_all();
  }

  // The caller always participates: progress never depends on a free worker.
  drain();
  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] {
      return state->remaining.load(std::memory_order_acquire) == 0;
    });
  }
  const size_t first_throw = state->error ? state->error_index : n;
  for (size_t i = 0; i < first_throw; ++i) {
    if (!statuses[i].ok()) return std::move(statuses[i]);
  }
  if (state->error) std::rethrow_exception(state->error);
  return Status::OK();
}

}  // namespace tcells::protocol
