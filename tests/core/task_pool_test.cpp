// Shared worker pool (core/task_pool.h): ordered reduction despite
// out-of-order completion, cancellation prefix semantics, error
// propagation, policy validation, and an oversubscribed stress run (the
// TSan CI preset replays this binary with 16 workers on few cores).
#include "core/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"

namespace vstack::core {
namespace {

ExecutionPolicy policy(std::size_t jobs) {
  ExecutionPolicy p;
  p.jobs = jobs;
  return p;
}

TEST(ExecutionPolicyTest, ValidateRejectsBadShapes) {
  EXPECT_THROW(TaskPool(policy(5000)), Error);
  EXPECT_NO_THROW(TaskPool(policy(0)));  // 0 = auto is legal
}


TEST(ExecutionPolicyTest, DefaultJobsHonorsEnvOverride) {
  const char* saved = std::getenv("VSTACK_JOBS");
  const std::string saved_value = saved ? saved : "";

  ASSERT_EQ(setenv("VSTACK_JOBS", "3", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), 3u);
  EXPECT_EQ(policy(0).resolved_jobs(), 3u);
  EXPECT_EQ(policy(2).resolved_jobs(), 2u);  // explicit jobs ignore the env

  // Malformed values fall through to hardware concurrency (>= 1).
  ASSERT_EQ(setenv("VSTACK_JOBS", "banana", 1), 0);
  EXPECT_GE(ExecutionPolicy::default_jobs(), 1u);
  ASSERT_EQ(setenv("VSTACK_JOBS", "0", 1), 0);
  EXPECT_GE(ExecutionPolicy::default_jobs(), 1u);

  if (saved) {
    setenv("VSTACK_JOBS", saved_value.c_str(), 1);
  } else {
    unsetenv("VSTACK_JOBS");
  }
}

TEST(ExecutionPolicyTest, DefaultJobsRejectsAndClampsBadEnvValues) {
  const char* saved = std::getenv("VSTACK_JOBS");
  const std::string saved_value = saved ? saved : "";
  const std::size_t fallback = [] {
    unsetenv("VSTACK_JOBS");
    return ExecutionPolicy::default_jobs();
  }();

  // Zero and negative values are ignored (warn + hardware fallback).
  ASSERT_EQ(setenv("VSTACK_JOBS", "0", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), fallback);
  ASSERT_EQ(setenv("VSTACK_JOBS", "-3", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), fallback);

  // Non-numeric (including trailing junk) is ignored too.
  ASSERT_EQ(setenv("VSTACK_JOBS", "abc", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), fallback);
  ASSERT_EQ(setenv("VSTACK_JOBS", "4banana", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), fallback);
  ASSERT_EQ(setenv("VSTACK_JOBS", "", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), fallback);

  // Huge values clamp to the 4096 pool bound instead of exploding --
  // including values past the long long range.
  ASSERT_EQ(setenv("VSTACK_JOBS", "100000", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), 4096u);
  ASSERT_EQ(setenv("VSTACK_JOBS", "99999999999999999999", 1), 0);
  EXPECT_EQ(ExecutionPolicy::default_jobs(), 4096u);

  // The clamped result must still be a constructible pool size.
  ExecutionPolicy p;
  p.jobs = ExecutionPolicy::default_jobs();
  EXPECT_NO_THROW(TaskPool{p});

  if (saved) {
    setenv("VSTACK_JOBS", saved_value.c_str(), 1);
  } else {
    unsetenv("VSTACK_JOBS");
  }
}

TEST(TaskPoolTest, ZeroCountIsANoop) {
  const TaskPool pool(policy(4));
  pool.run_ordered(
      0, [](std::size_t) { FAIL() << "work on empty range"; },
      [](std::size_t) { FAIL() << "commit on empty range"; });
}

TEST(TaskPoolTest, SerialInterleavesWorkAndCommitInline) {
  const TaskPool pool(policy(1));
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> events;
  pool.run_ordered(
      3,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        events.push_back(std::string("w").append(std::to_string(i)));
      },
      [&](std::size_t i) {
        events.push_back(std::string("c").append(std::to_string(i)));
      });
  EXPECT_EQ(events,
            (std::vector<std::string>{"w0", "c0", "w1", "c1", "w2", "c2"}));
}

// The determinism tentpole: workers finish in roughly REVERSE index order
// (early indices sleep longest), yet commits arrive strictly ascending on
// the calling thread.
TEST(TaskPoolTest, CommitsInIndexOrderDespiteOutOfOrderCompletion) {
  const std::size_t count = 8;
  const TaskPool pool(policy(4));
  const std::thread::id caller = std::this_thread::get_id();

  std::mutex mu;
  std::vector<std::size_t> completion;
  std::vector<std::size_t> commits;
  pool.run_ordered(
      count,
      [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds((count - i) * 10));
        const std::lock_guard<std::mutex> lock(mu);
        completion.push_back(i);
      },
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        commits.push_back(i);
      });

  ASSERT_EQ(commits.size(), count);
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(commits[i], i);
  // Index 3 sleeps 50 ms, index 0 sleeps 80 ms: with 4 concurrent workers
  // the first batch cannot complete in ascending order.
  ASSERT_EQ(completion.size(), count);
  EXPECT_NE(completion, commits);
}

TEST(TaskPoolTest, CancelOnErrorCommitsExactPrefixAndRethrows) {
  const std::size_t count = 16;
  const TaskPool pool(policy(4));
  std::vector<std::size_t> commits;
  try {
    pool.run_ordered(
        count,
        [&](std::size_t i) {
          if (i == 5) throw Error("boom at 5");
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        [&](std::size_t i) { commits.push_back(i); });
    FAIL() << "expected the work error to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at 5"), std::string::npos);
  }
  // Commits are a contiguous prefix that stops at (or before) the failed
  // index -- never a hole, never anything past the failure.
  EXPECT_LE(commits.size(), 5u);
  for (std::size_t i = 0; i < commits.size(); ++i) EXPECT_EQ(commits[i], i);
}

TEST(TaskPoolTest, CommitExceptionCancelsAndRethrows) {
  const std::size_t count = 64;
  const TaskPool pool(policy(4));
  std::vector<std::size_t> commits;
  try {
    pool.run_ordered(
        count, [](std::size_t) {},
        [&](std::size_t i) {
          if (i == 2) throw Error("manifest write failed");
          commits.push_back(i);
        });
    FAIL() << "expected the commit error to propagate";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "manifest write failed");
  }
  EXPECT_EQ(commits, (std::vector<std::size_t>{0, 1}));
}

// Oversubscription stress: far more workers than cores, one-index claims,
// every index evaluated exactly once and reduced in order.  This is the
// test the CI TSan job replays repeatedly.
TEST(TaskPoolStressTest, OversubscribedRunReducesDeterministically) {
  const std::size_t count = 500;
  const TaskPool pool(policy(16));
  std::vector<std::size_t> results(count, 0);
  std::vector<std::atomic<int>> touched(count);
  for (auto& t : touched) t.store(0);

  std::size_t next_expected = 0;
  unsigned long long sum = 0;
  pool.run_ordered(
      count,
      [&](std::size_t i) {
        touched[i].fetch_add(1);
        results[i] = i * i;
      },
      [&](std::size_t i) {
        EXPECT_EQ(i, next_expected++);
        sum += results[i];
      });

  EXPECT_EQ(next_expected, count);
  unsigned long long want = 0;
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
    want += static_cast<unsigned long long>(i) * i;
  }
  EXPECT_EQ(sum, want);
}

}  // namespace
}  // namespace vstack::core
