// The shard supervisor (shard/supervisor.h) driving stand-in workers: each
// "worker" is a `sh -c SCRIPT` that ignores the worker flags the supervisor
// appends.  poll_s is 5 s, so a supervisor that sees exits or restart gates
// only on its poll tick misses every time bound here.
#include "shard/supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "shard/job.h"

namespace vstack::shard {
namespace {

namespace fs = std::filesystem;

const core::StudyContext& ctx() {
  static const core::StudyContext c = core::StudyContext::paper_defaults();
  return c;
}

JobSpec small_spec() {
  JobSpec spec;
  spec.layers = 4;
  spec.grid = 8;
  spec.trials = 3;
  spec.converter_faults_per_trial = 8;
  return spec;
}

SupervisorOptions stand_in_fleet(const std::string& tag,
                                 const std::string& script,
                                 std::size_t shards) {
  SupervisorOptions opts;
  opts.job_dir = testing::TempDir() + "vstack_supervisor_" + tag + "_" +
                 std::to_string(::getpid());
  fs::remove_all(opts.job_dir);
  opts.shards = shards;
  opts.worker_command = {"/bin/sh", "-c", script, "sh"};
  opts.poll_s = 5.0;
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(RunSupervisedJobTest, RetiresCleanExitsWithoutWaitingForThePollTick) {
  // The pause makes the workers outlive the supervisor's first reap pass,
  // so their exits must wake it from a wait.
  const SupervisorOptions opts =
      stand_in_fleet("clean", "sleep 0.5; exit 0", 3);
  const auto start = std::chrono::steady_clock::now();
  const SupervisorReport report = run_supervised_job(ctx(), small_spec(), opts);
  EXPECT_LT(seconds_since(start), 2.0);

  EXPECT_EQ(report.workers_started, 3u);
  EXPECT_EQ(report.workers_restarted, 0u);
  EXPECT_EQ(report.failed_slots, 0u);
  EXPECT_FALSE(report.interrupted);
  // The stand-ins ran nothing, so the merge finds every trial missing.
  EXPECT_EQ(report.merge.committed, 0u);
  EXPECT_EQ(report.merge.missing_trials.size(), small_spec().trials);
  fs::remove_all(opts.job_dir);
}

TEST(RunSupervisedJobTest, RestartsCrashedWorkersWhenTheirBackoffEnds) {
  SupervisorOptions opts = stand_in_fleet("crash", "exit 3", 2);
  opts.max_restarts = 2;
  opts.backoff_s = 0.05;
  const auto start = std::chrono::steady_clock::now();
  const SupervisorReport report = run_supervised_job(ctx(), small_spec(), opts);
  // Per slot: crash, 0.05 s backoff, crash, 0.1 s backoff, crash, abandon.
  EXPECT_LT(seconds_since(start), 3.0);

  EXPECT_EQ(report.workers_started, 2u);
  EXPECT_EQ(report.workers_restarted, 4u);
  EXPECT_EQ(report.failed_slots, 2u);
  EXPECT_EQ(report.merge.missing_trials.size(), small_spec().trials);
  fs::remove_all(opts.job_dir);
}

}  // namespace
}  // namespace vstack::shard
