// Unit tests for the fleet engine's fan-out primitive, the Status-based
// ParallelExecutor and its worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "protocol/parallel_executor.h"

namespace tcells::protocol {
namespace {

// Wraps a void job as an always-OK one.
template <typename Fn>
Status RunAll(ParallelExecutor& executor, size_t n, Fn fn) {
  return executor.ForEachIndex(n, [&](size_t i) -> Status {
    fn(i);
    return Status::OK();
  });
}

TEST(ParallelExecutorTest, EmptyRangeIsOk) {
  ParallelExecutor executor(2);
  EXPECT_TRUE(executor.ForEachIndex(0, [](size_t) -> Status {
                        return Status::Internal("never called");
                      }).ok());
}

TEST(ParallelExecutorTest, SerialModeRunsInlineInOrder) {
  ParallelExecutor executor(1);
  EXPECT_EQ(executor.num_threads(), 1u);
  EXPECT_FALSE(executor.parallel());
  std::set<std::thread::id> ids;
  std::vector<size_t> order;
  EXPECT_TRUE(RunAll(executor, 16, [&](size_t i) {
                ids.insert(std::this_thread::get_id());
                order.push_back(i);
              }).ok());
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelExecutorTest, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_EQ(ParallelExecutor(5).num_threads(), 5u);
  ParallelExecutor executor(0);
  EXPECT_GE(executor.num_threads(), 1u);
  int runs = 0;
  std::mutex mu;
  EXPECT_TRUE(RunAll(executor, 3, [&](size_t) {
                std::lock_guard<std::mutex> lock(mu);
                ++runs;
              }).ok());
  EXPECT_EQ(runs, 3);
}

TEST(ParallelExecutorTest, EveryIndexRunsExactlyOnce) {
  ParallelExecutor executor(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  EXPECT_TRUE(RunAll(executor, kN, [&](size_t i) { hits[i].fetch_add(1); }).ok());
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelExecutorTest, ResultIndependentOfTaskOrdering) {
  // Jobs write to disjoint slots: the gathered result must equal the serial
  // reference no matter how the scheduler interleaves them.
  auto f = [](size_t i) { return static_cast<int>(i * i % 97); };
  std::vector<int> serial(512);
  for (size_t i = 0; i < serial.size(); ++i) serial[i] = f(i);

  ParallelExecutor executor(8);
  for (int round = 0; round < 5; ++round) {
    std::vector<int> parallel(512);
    EXPECT_TRUE(RunAll(executor, parallel.size(),
                       [&](size_t i) { parallel[i] = f(i); })
                    .ok());
    EXPECT_EQ(parallel, serial);
  }
}

TEST(ParallelExecutorTest, RunsAllJobsAndReportsLowestIndexError) {
  ParallelExecutor executor(4);
  std::atomic<int> runs{0};
  Status status = executor.ForEachIndex(50, [&](size_t i) -> Status {
    runs.fetch_add(1);
    if (i == 31) return Status::InvalidArgument("late failure");
    if (i == 12) return Status::ResourceExhausted("early failure");
    return Status::OK();
  });
  EXPECT_EQ(runs.load(), 50);  // never short-circuits
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.message(), "early failure");
}

TEST(ParallelExecutorTest, ExceptionOfLowestIndexPropagates) {
  ParallelExecutor executor(4);
  std::atomic<int> completed{0};
  try {
    (void)RunAll(executor, 100, [&](size_t i) {
      if (i == 17 || i == 63) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
      completed.fetch_add(1);
    });
    FAIL() << "expected ForEachIndex to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 17");
  }
  // All non-throwing jobs still ran: no short-circuiting, so side effects
  // match a serial sweep.
  EXPECT_EQ(completed.load(), 98);
}

TEST(ParallelExecutorTest, LowestFailureWinsBetweenStatusAndException) {
  ParallelExecutor executor(4);
  auto job = [](size_t status_at, size_t throw_at) {
    return [=](size_t i) -> Status {
      if (i == throw_at) throw std::runtime_error("boom");
      if (i == status_at) return Status::Internal("status");
      return Status::OK();
    };
  };
  Status status = executor.ForEachIndex(40, job(/*status_at=*/5,
                                                /*throw_at=*/30));
  EXPECT_EQ(status.message(), "status");
  EXPECT_THROW((void)executor.ForEachIndex(40, job(/*status_at=*/30,
                                                   /*throw_at=*/5)),
               std::runtime_error);
}

TEST(ParallelExecutorTest, ReusableAcrossManySubmissions) {
  ParallelExecutor executor(3);
  size_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    EXPECT_TRUE(
        RunAll(executor, round % 7, [&](size_t i) { sum.fetch_add(i + 1); })
            .ok());
    total += sum.load();
  }
  size_t expected = 0;
  for (int round = 0; round < 200; ++round) {
    size_t n = round % 7;
    expected += n * (n + 1) / 2;
  }
  EXPECT_EQ(total, expected);
}

TEST(ParallelExecutorTest, CallerParticipatesSoNestingCannotDeadlock) {
  // A job that itself fans out must complete even though all workers may be
  // busy: the inner caller drains its own indices.
  ParallelExecutor executor(2);
  std::atomic<int> inner_runs{0};
  EXPECT_TRUE(RunAll(executor, 4, [&](size_t) {
                EXPECT_TRUE(RunAll(executor, 4, [&](size_t) {
                              inner_runs.fetch_add(1);
                            }).ok());
              }).ok());
  EXPECT_EQ(inner_runs.load(), 16);
}

}  // namespace
}  // namespace tcells::protocol
