// Spool server (service/server.h): terminal statuses, admission, graceful
// degradation, timeout classification, crash recovery, and interruption --
// all against a real temp spool with tiny stacks so each request is fast.
#include "service/server.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/study.h"
#include "service/request.h"
#include "shard/job.h"

namespace fs = std::filesystem;

namespace vstack::service {
namespace {

const core::StudyContext& ctx() {
  static const core::StudyContext c = core::StudyContext::paper_defaults();
  return c;
}

class ServerTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(testing::TempDir()) /
            ("vstack_spool_" +
             std::string(
                 testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "incoming");
  }

  void TearDown() override { fs::remove_all(root_); }

  /// Small-but-real contingency request: ~tens of milliseconds.
  std::string small_request(const std::string& id,
                            const std::string& extra = "") {
    return "id = " + id +
           "\nkind = contingency\ntopology = stacked\nlayers = 2\n"
           "grid = 4\ntrials = 2\nfaults = 1\nseed = 11\n" +
           extra;
  }

  void submit(const std::string& id, const std::string& text) {
    std::ofstream(root_ / "incoming" / (id + ".req")) << text;
  }

  ServerOptions fast_options() {
    ServerOptions o;
    o.root = root_.string();
    o.poll_interval_s = 0.01;
    o.health_interval_s = 0.0;  // startup/shutdown snapshots only
    o.idle_exit_s = 0.05;
    o.execution.jobs = 1;
    o.retry.initial_backoff_s = 0.0;  // failures re-try immediately
    o.retry.jitter_fraction = 0.0;
    return o;
  }

  std::vector<std::string> responses() {
    std::vector<std::string> lines;
    std::ifstream in(root_ / "results" / "responses.jsonl");
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  static bool has_field(const std::string& line, const std::string& fragment) {
    return line.find(fragment) != std::string::npos;
  }

  fs::path root_;
};

TEST_F(ServerTest, RunsARequestToDone) {
  submit("job1", small_request("job1"));
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_FALSE(stats.interrupted);
  EXPECT_TRUE(fs::exists(root_ / "done" / "job1.req"));
  EXPECT_TRUE(fs::exists(root_ / "health.json"));
  const auto lines = responses();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_field(lines[0], "\"id\":\"job1\"")) << lines[0];
  EXPECT_TRUE(has_field(lines[0], "\"status\":\"ok\"")) << lines[0];
  EXPECT_TRUE(has_field(lines[0], "\"survivable\":")) << lines[0];
}

TEST_F(ServerTest, InvalidRequestAnswersInvalid) {
  submit("badjob", "kind = campaign\nbogus = 1\n");
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_TRUE(fs::exists(root_ / "failed" / "badjob.req"));
  const auto lines = responses();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_field(lines[0], "\"status\":\"invalid\"")) << lines[0];
  EXPECT_TRUE(has_field(lines[0], "line 2")) << lines[0];
}

TEST_F(ServerTest, QueueOverflowIsShedAsRejectedOverload) {
  ServerOptions o = fast_options();
  o.admission.max_queue_depth = 2;
  o.admission.degrade_trial_divisor = 1;  // isolate the overflow path
  for (int i = 0; i < 4; ++i) {
    std::string id = "q";
    id += std::to_string(i);
    submit(id, small_request(id));
  }
  const ServerStats stats = SpoolServer(ctx(), o).run();
  // Positions 2..3 shed on the first poll; the first two run normally.
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.served, 4u);
  EXPECT_TRUE(fs::exists(root_ / "failed" / "q2.req"));
  EXPECT_TRUE(fs::exists(root_ / "failed" / "q3.req"));
}

TEST_F(ServerTest, BackpressureDegradesTrialCounts) {
  ServerOptions o = fast_options();
  o.admission.max_queue_depth = 2;
  o.admission.degrade_depth_fraction = 1.0;  // degrade only at full depth
  o.admission.degrade_trial_divisor = 2;
  submit("d0", small_request("d0"));
  submit("d1", small_request("d1"));
  const ServerStats stats = SpoolServer(ctx(), o).run();
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_GE(stats.degraded, 1u) << "queue was at depth 2 for the first run";
  const auto lines = responses();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(has_field(lines[0], "\"degraded\":1")) << lines[0];
  // Degraded contingency runs half the trials' cases (plus N-1 planning is
  // unaffected); the response still reports what actually ran.
  EXPECT_TRUE(has_field(lines[1], "\"degraded\":0")) << lines[1];
}

TEST_F(ServerTest, RejectsOversizedRequest) {
  ServerOptions o = fast_options();
  o.admission.max_request_bytes = 1 << 20;
  submit("huge",
         "id = huge\nkind = contingency\ntopology = stacked\nlayers = 8\n"
         "grid = 64\ntrials = 2\nfaults = 1\nseed = 11\njobs = 8\n");
  const ServerStats stats = SpoolServer(ctx(), o).run();
  EXPECT_EQ(stats.rejected, 1u);
  const auto lines = responses();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_field(lines[0], "rejected-overload")) << lines[0];
}

TEST_F(ServerTest, ExpiredRequestDeadlineAnswersTimeout) {
  // A pre-expired per-request deadline cancels every chunk before it
  // commits: deterministic timeout, zero cases, still a terminal response.
  submit("slow", small_request("slow", "deadline_s = 1e-9\n"));
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  EXPECT_EQ(stats.timeout, 1u);
  EXPECT_TRUE(fs::exists(root_ / "done" / "slow.req"));
  const auto lines = responses();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_field(lines[0], "\"status\":\"timeout\"")) << lines[0];
}

TEST_F(ServerTest, ExpiredDeadlineSweepAnswersNoRows) {
  // The deadline fires before any figure row commits: the response counts
  // (and hashes) the rows that were computed -- none -- not placeholders.
  submit("fig", "id = fig\nkind = sweep\nfigure = 5a\ndeadline_s = 1e-9\n");
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  EXPECT_EQ(stats.timeout, 1u);
  const auto lines = responses();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_field(lines[0], "\"status\":\"timeout\"")) << lines[0];
  EXPECT_TRUE(has_field(lines[0], "\"rows\":0,")) << lines[0];
}

TEST_F(ServerTest, ExpiredDeadlineCompleteSweepIsNotATimeout) {
  // Fig. 7 is one serial sampling campaign that never stops early: an
  // expired deadline still yields every row, and a complete figure is ok.
  submit("fig", "id = fig\nkind = sweep\nfigure = 7\ndeadline_s = 1e-9\n");
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.timeout, 0u);
  const auto lines = responses();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_field(lines[0], "\"status\":\"ok\"")) << lines[0];
  EXPECT_TRUE(has_field(lines[0], "\"rows\":13,")) << lines[0];
}

TEST_F(ServerTest, CampaignRequestRunsTheSharedRecipe) {
  // A campaign request is built by shard::make_campaign: its manifest must
  // equal the one CampaignRunner writes for the matching JobSpec.
  submit("camp", "id = camp\nkind = campaign\ntopology = stacked\n"
                 "layers = 2\ngrid = 4\ntrials = 2\nseed = 7\n");
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  ASSERT_EQ(stats.ok, 1u);

  shard::JobSpec spec;
  spec.stacked = true;
  spec.layers = 2;
  spec.grid = 4;
  spec.imbalance = 0.8;
  spec.trials = 2;
  spec.faults_per_trial = 2;
  spec.converter_faults_per_trial = 32;  // stacked
  spec.seed = 7;
  spec.duration_s = 400e-9;
  spec.fault_time_s = 50e-9;  // duration / 8
  spec.scenario_timeout_s = 0.0;
  shard::CampaignSetup campaign = shard::make_campaign(ctx(), spec);
  campaign.options.manifest_path = (root_ / "reference.jsonl").string();
  core::CampaignRunner(ctx(), campaign.config)
      .run(campaign.activities, campaign.options);

  const auto masked = [](const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    static const std::regex wall(R"re("wall_seconds":[^,}]*)re");
    return std::regex_replace(oss.str(), wall, "\"wall_seconds\":X");
  };
  const std::string served = masked(root_ / "manifests" / "camp.jsonl");
  EXPECT_FALSE(served.empty());
  EXPECT_EQ(served, masked(root_ / "reference.jsonl"));
}

TEST_F(ServerTest, RecoversUnansweredActiveRequest) {
  // Simulate a crash mid-run: the request was claimed into active/ but no
  // response was written.  Restart must adopt and finish it.
  fs::create_directories(root_ / "active");
  std::ofstream(root_ / "active" / "orphan.req") << small_request("orphan");
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_TRUE(fs::exists(root_ / "done" / "orphan.req"));
}

TEST_F(ServerTest, FinishesMoveForAnsweredActiveRequest) {
  // Crash between response-append and rename: the answer is durable, the
  // request file is still in active/.  Restart just completes the move --
  // no re-run, no duplicate response.
  fs::create_directories(root_ / "active");
  fs::create_directories(root_ / "results");
  std::ofstream(root_ / "active" / "dup.req") << small_request("dup");
  std::ofstream(root_ / "results" / "responses.jsonl")
      << "{\"kind\":\"vstack-response\",\"id\":\"dup\",\"status\":\"ok\"}\n";
  const ServerStats stats = SpoolServer(ctx(), fast_options()).run();
  EXPECT_EQ(stats.served, 0u) << "no re-run of an answered request";
  EXPECT_TRUE(fs::exists(root_ / "done" / "dup.req"));
  EXPECT_EQ(responses().size(), 1u) << "no duplicate response line";
}

TEST_F(ServerTest, PreCancelledStopTokenInterruptsImmediately) {
  ServerOptions o = fast_options();
  const Deadline stop = Deadline::cancellable();
  stop.cancel();
  o.stop = stop;
  submit("later", small_request("later"));
  const ServerStats stats = SpoolServer(ctx(), o).run();
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_TRUE(fs::exists(root_ / "incoming" / "later.req"))
      << "unclaimed work stays queued for the next start";
}

TEST_F(ServerTest, MaxRequestsBoundsTheRun) {
  ServerOptions o = fast_options();
  o.max_requests = 1;
  o.idle_exit_s = 0.0;  // must exit via the request bound, not idleness
  submit("a1", small_request("a1"));
  submit("a2", small_request("a2"));
  const ServerStats stats = SpoolServer(ctx(), o).run();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_TRUE(fs::exists(root_ / "incoming" / "a2.req"));
}

}  // namespace
}  // namespace vstack::service
