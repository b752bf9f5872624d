// Shard workers (shard/worker.h) run in-process as threads: a two-worker
// fleet must reproduce the serial campaign (modulo wall_seconds), a poison
// chunk must be quarantined after max_attempts, a stopped worker must
// leave a job a later worker can finish, and an idle worker must scan
// again as soon as the chunk it waits on is released or resolved.
#include "shard/worker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_file.h"
#include "core/campaign.h"
#include "shard/job.h"
#include "shard/lease.h"
#include "shard/merge.h"

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
  spec.trials = 5;
  spec.faults_per_trial = 2;
  spec.converter_faults_per_trial = 8;
  spec.seed = 11;
  spec.duration_s = 200e-9;
  spec.lease_expiry_s = 5.0;
  spec.heartbeat_s = 0.2;
  return spec;
}

JobPaths fresh_job(const std::string& tag,
                   const JobSpec& spec = small_spec()) {
  const std::string dir = testing::TempDir() + "vstack_worker_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  const JobPaths paths(dir);
  publish_plan(paths, spec, job_config_hash(ctx(), spec));
  return paths;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// wall_seconds is real time, everything else is physics: strip it before
/// comparing a re-executed manifest against the serial one.
std::string mask_wall_seconds(const std::string& text) {
  static const std::regex wall(",\"wall_seconds\":[^,}]*");
  return std::regex_replace(text, wall, "");
}

std::string serial_manifest_text() {
  static const std::string text = [] {
    const std::string path = testing::TempDir() + "vstack_worker_serial_" +
                             std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());
    const CampaignSetup setup = make_campaign(ctx(), small_spec());
    core::CampaignOptions opts = setup.options;
    opts.manifest_path = path;
    const core::CampaignRunner runner(ctx(), setup.config);
    runner.run(setup.activities, opts);
    std::string out = slurp(path);
    std::remove(path.c_str());
    return out;
  }();
  return text;
}

TEST(RunWorkerTest, TwoWorkerFleetReproducesTheSerialManifest) {
  const JobPaths paths = fresh_job("fleet");

  WorkerReport reports[2];
  std::vector<std::thread> fleet;
  for (int w = 0; w < 2; ++w) {
    fleet.emplace_back([&, w] {
      WorkerOptions opt;
      opt.job_dir = paths.root;
      opt.worker_id = "w" + std::to_string(w);
      reports[w] = run_worker(ctx(), opt);
    });
  }
  for (auto& t : fleet) t.join();

  EXPECT_FALSE(reports[0].stopped_early);
  EXPECT_FALSE(reports[1].stopped_early);
  // Every chunk completed exactly once across the fleet (leases serialize
  // the claims; nobody crashed, so no chunk needed a second attempt).
  EXPECT_EQ(reports[0].chunks_completed + reports[1].chunks_completed,
            small_spec().trials);

  const MergeReport merge = merge_job(ctx(), paths.root);
  EXPECT_TRUE(merge.clean());
  EXPECT_EQ(merge.committed, small_spec().trials);
  EXPECT_EQ(mask_wall_seconds(slurp(paths.merged())),
            mask_wall_seconds(serial_manifest_text()));
  fs::remove_all(paths.root);
}

TEST(RunWorkerTest, ExhaustedAttemptTrailQuarantinesTheChunk) {
  const JobPaths paths = fresh_job("poison");
  const JobSpec spec = small_spec();

  // Chunk 2's trail already shows max_attempts workers died in it: the
  // next claimant must quarantine instead of becoming victim N+1.
  {
    DurableAppender attempts;
    attempts.open(paths.attempts(2));
    for (std::size_t seq = 1; seq <= spec.max_attempts; ++seq) {
      attempts.append_line("{\"worker\":\"w-dead\",\"pid\":1,\"seq\":" +
                           std::to_string(seq) + "}");
    }
  }

  WorkerOptions opt;
  opt.job_dir = paths.root;
  opt.worker_id = "w0";
  const WorkerReport report = run_worker(ctx(), opt);
  EXPECT_EQ(report.chunks_quarantined, 1u);
  EXPECT_EQ(report.chunks_completed, spec.trials - 1);
  ASSERT_TRUE(fs::exists(paths.quarantine(2)));

  // The diagnostic names the chunk and inlines the full attempt trail.
  const std::string diag = slurp(paths.quarantine(2));
  EXPECT_NE(diag.find("\"chunk\":2"), std::string::npos);
  EXPECT_NE(diag.find("\"attempts\":3"), std::string::npos);
  EXPECT_NE(diag.find("\"quarantined_by\":\"w0\""), std::string::npos);
  EXPECT_NE(diag.find("\"worker\":\"w-dead\""), std::string::npos);

  const MergeReport merge = merge_job(ctx(), paths.root);
  EXPECT_FALSE(merge.clean());
  ASSERT_EQ(merge.quarantined_trials.size(), 1u);
  EXPECT_EQ(merge.quarantined_trials[0], 2u);
  EXPECT_TRUE(merge.missing_trials.empty());
  fs::remove_all(paths.root);
}

TEST(RunWorkerTest, StoppedWorkerLeavesAJobASuccessorCanFinish) {
  const JobPaths paths = fresh_job("resume");

  WorkerOptions stopped;
  stopped.job_dir = paths.root;
  stopped.worker_id = "w0";
  stopped.stop = Deadline::after(-1.0);  // already expired
  const WorkerReport first = run_worker(ctx(), stopped);
  EXPECT_TRUE(first.stopped_early);
  EXPECT_EQ(first.chunks_completed, 0u);

  // A successor reusing the SAME worker id appends after the (possibly
  // torn) manifest of its predecessor and finishes the job.
  WorkerOptions successor;
  successor.job_dir = paths.root;
  successor.worker_id = "w0";
  const WorkerReport second = run_worker(ctx(), successor);
  EXPECT_FALSE(second.stopped_early);
  EXPECT_EQ(second.chunks_completed, small_spec().trials);

  const MergeReport merge = merge_job(ctx(), paths.root);
  EXPECT_TRUE(merge.clean());
  EXPECT_EQ(mask_wall_seconds(slurp(paths.merged())),
            mask_wall_seconds(serial_manifest_text()));
  fs::remove_all(paths.root);
}

/// How the test unblocks the chunk an idle worker waits on.
enum class Unblock {
  Release,     // drop the lease: the chunk becomes claimable
  DoneMarker,  // write the done marker, keep the lease (the crash window
               // lease.release.before_unlink leaves behind)
};

class IdleWorkerWakeTest : public testing::TestWithParam<Unblock> {};

/// Seconds until `ready()` holds, checked every 10 ms for at most 300 s.
double seconds_until(const std::function<bool()>& ready) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (!ready() && elapsed() < 300.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return elapsed();
}

// The test holds chunk 4's lease while w1 runs chunks 0-3, then unblocks
// chunk 4.  Heartbeats are 20 s apart and leases live 60 s, so a worker
// that only scans again on its heartbeat misses the 5 s bound.  After a
// release the bound is on the claim (w1's attempt record for chunk 4),
// not on w1's return: under TSan running the trial alone can exceed 5 s.
TEST_P(IdleWorkerWakeTest, ScansAgainWhenTheBlockingChunkResolves) {
  JobSpec spec = small_spec();
  spec.heartbeat_s = 20.0;
  spec.lease_expiry_s = 60.0;
  const bool release = GetParam() == Unblock::Release;
  const JobPaths paths =
      fresh_job(release ? "wake_release" : "wake_done", spec);

  LeaseManager holder(paths, "holder", spec.lease_expiry_s, spec.heartbeat_s);
  ASSERT_TRUE(holder.try_claim(4));

  WorkerReport report;
  std::atomic<bool> returned{false};
  std::thread w1([&] {
    WorkerOptions opt;
    opt.job_dir = paths.root;
    opt.worker_id = "w1";
    report = run_worker(ctx(), opt);
    returned = true;
  });
  const auto first_four_done = [&] {
    for (std::size_t c = 0; c < 4; ++c) {
      if (!fs::exists(paths.done(c))) return false;
    }
    return true;
  };
  seconds_until(first_four_done);
  EXPECT_TRUE(first_four_done());
  // Let w1 finish its scan and settle into the idle wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  if (release) {
    holder.release(4);
    EXPECT_LT(seconds_until([&] { return fs::exists(paths.attempts(4)); }),
              5.0);
  } else {
    atomic_write_file(paths.done(4),
                      "{\"chunk\":4,\"worker\":\"holder\",\"trials\":1}\n");
    EXPECT_LT(seconds_until([&] { return returned.load(); }), 5.0);
  }
  w1.join();
  EXPECT_FALSE(report.stopped_early);

  if (release) {
    EXPECT_EQ(report.chunks_completed, spec.trials);
    const MergeReport merge = merge_job(ctx(), paths.root);
    EXPECT_TRUE(merge.clean());
    EXPECT_EQ(mask_wall_seconds(slurp(paths.merged())),
              mask_wall_seconds(serial_manifest_text()));
  } else {
    EXPECT_EQ(report.chunks_completed, 4u);
  }
  fs::remove_all(paths.root);
}

INSTANTIATE_TEST_SUITE_P(
    BlockingChunk, IdleWorkerWakeTest,
    testing::Values(Unblock::Release, Unblock::DoneMarker),
    [](const testing::TestParamInfo<Unblock>& info) {
      return info.param == Unblock::Release ? "Release" : "DoneMarker";
    });

}  // namespace
}  // namespace vstack::shard
