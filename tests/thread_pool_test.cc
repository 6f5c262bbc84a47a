// Unit tests for the fleet engine's fan-out primitives: the fixed-size
// ThreadPool and the Status-based ParallelExecutor.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "protocol/parallel_executor.h"

namespace tcells {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) {
    // Inline execution: same thread, strictly ascending indices.
    EXPECT_EQ(std::this_thread::get_id(), std::this_thread::get_id());
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  int runs = 0;
  pool.ParallelFor(3, [&](size_t) { ++runs; });
  EXPECT_EQ(runs, 3);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ResultIndependentOfTaskOrdering) {
  // Tasks write to disjoint slots: the gathered result must equal the serial
  // reference no matter how the scheduler interleaves them.
  auto f = [](size_t i) { return static_cast<int>(i * i % 97); };
  std::vector<int> serial(512);
  for (size_t i = 0; i < serial.size(); ++i) serial[i] = f(i);

  ThreadPool pool(8);
  for (int round = 0; round < 5; ++round) {
    std::vector<int> parallel(512);
    pool.ParallelFor(parallel.size(), [&](size_t i) { parallel[i] = f(i); });
    EXPECT_EQ(parallel, serial);
  }
}

TEST(ThreadPoolTest, ExceptionOfLowestIndexPropagates) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(100, [&](size_t i) {
      if (i == 17 || i == 63) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
      completed.fetch_add(1);
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 17");
  }
  // All non-throwing tasks still ran: no short-circuiting, so side effects
  // match a serial sweep.
  EXPECT_EQ(completed.load(), 98);
}

TEST(ThreadPoolTest, ReusableAcrossManySubmissions) {
  ThreadPool pool(3);
  size_t total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(round % 7, [&](size_t i) { sum.fetch_add(i + 1); });
    total += sum.load();
  }
  size_t expected = 0;
  for (int round = 0; round < 200; ++round) {
    size_t n = round % 7;
    expected += n * (n + 1) / 2;
  }
  EXPECT_EQ(total, expected);
}

TEST(ThreadPoolTest, CallerParticipatesSoNestingCannotDeadlock) {
  // A task that itself fans out must complete even though all workers may be
  // busy: the inner caller drains its own indices.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 16);
}

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware) {
  EXPECT_EQ(ThreadPool::ResolveThreads(5), 5u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
}

// ---------------------------------------------------------------------------
// ParallelExecutor

TEST(ParallelExecutorTest, RunsAllJobsAndReportsLowestIndexError) {
  protocol::ParallelExecutor executor(4);
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

TEST(ParallelExecutorTest, SerialModeSpawnsNoThreads) {
  protocol::ParallelExecutor executor(1);
  EXPECT_FALSE(executor.parallel());
  std::set<std::thread::id> ids;
  EXPECT_TRUE(executor
                  .ForEachIndex(16,
                                [&](size_t) -> Status {
                                  ids.insert(std::this_thread::get_id());
                                  return Status::OK();
                                })
                  .ok());
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelExecutorTest, EmptyRangeIsOk) {
  protocol::ParallelExecutor executor(2);
  EXPECT_TRUE(executor.ForEachIndex(0, [](size_t) -> Status {
                        return Status::Internal("never called");
                      }).ok());
}

}  // namespace
}  // namespace tcells
