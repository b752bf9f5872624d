// Deterministic shard merge (shard/merge.h).  The load-bearing property:
// however the serial manifest's lines are scattered across shard files --
// random splits, duplicated commits, torn trailing fragments -- the merge
// reproduces the serial manifest BYTE FOR BYTE.  Plus the failure-path
// accounting: quarantined vs missing trials, divergent duplicates, and
// foreign shard headers.
#include "shard/merge.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/campaign.h"
#include "core/campaign_manifest.h"
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
  spec.trials = 6;
  spec.faults_per_trial = 2;
  spec.converter_faults_per_trial = 8;
  spec.seed = 7;
  spec.duration_s = 200e-9;
  return spec;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// The serial manifest for small_spec(), produced once per process: header
/// + one line per trial, exactly what a shard fleet must reassemble.
struct SerialRun {
  std::string manifest_text;
  std::string header;
  std::vector<std::string> lines;  // scenario lines, trial order
  core::CampaignReport report;
};

const SerialRun& serial_run() {
  static const SerialRun run = [] {
    const std::string path = testing::TempDir() + "vstack_merge_serial_" +
                             std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());
    const CampaignSetup setup = make_campaign(ctx(), small_spec());
    core::CampaignOptions opts = setup.options;
    opts.manifest_path = path;
    const core::CampaignRunner runner(ctx(), setup.config);
    SerialRun out;
    out.report = runner.run(setup.activities, opts);
    out.manifest_text = slurp(path);
    std::istringstream in(out.manifest_text);
    std::getline(in, out.header);
    std::string line;
    while (std::getline(in, line)) out.lines.push_back(line);
    std::remove(path.c_str());
    return out;
  }();
  return run;
}

/// A fresh job directory with plan.json published for small_spec().
JobPaths fresh_job(const std::string& tag) {
  const std::string dir = testing::TempDir() + "vstack_merge_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  const JobPaths paths(dir);
  publish_plan(paths, small_spec(), job_config_hash(ctx(), small_spec()));
  return paths;
}

void write_shard(const JobPaths& paths, const std::string& worker,
                 const std::vector<std::string>& lines,
                 const std::string& tail = "") {
  std::ofstream out(paths.shard_manifest(worker), std::ios::binary);
  out << serial_run().header << "\n";
  for (const auto& line : lines) out << line << "\n";
  out << tail;  // optionally a torn fragment, no newline
}

TEST(MergeJobTest, RandomizedSplitsWithDuplicatesAndTornTailsMergeByteIdentical) {
  const SerialRun& serial = serial_run();
  ASSERT_EQ(serial.lines.size(), small_spec().trials);

  for (std::uint64_t trial_seed = 1; trial_seed <= 8; ++trial_seed) {
    std::mt19937_64 rng(trial_seed);
    const JobPaths paths =
        fresh_job("prop" + std::to_string(trial_seed));

    const std::size_t workers = 2 + rng() % 3;  // 2..4 shard files
    std::vector<std::vector<std::string>> assigned(workers);
    for (const std::string& line : serial.lines) {
      assigned[rng() % workers].push_back(line);          // home shard
      if (rng() % 3 == 0) {
        assigned[rng() % workers].push_back(line);        // duplicate commit
      }
    }
    std::size_t torn = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      std::string tail;
      if (rng() % 2 == 0 && !serial.lines.empty()) {
        // A kill -9 mid-append: half of some line, no terminator.
        const std::string& victim = serial.lines[rng() % serial.lines.size()];
        tail = victim.substr(0, victim.size() / 2);
        ++torn;
      }
      write_shard(paths, std::string("w").append(std::to_string(w)),
                  assigned[w], tail);
    }

    const MergeReport merge = merge_job(ctx(), paths.root);
    EXPECT_TRUE(merge.clean()) << "seed " << trial_seed;
    EXPECT_EQ(merge.committed, serial.lines.size());
    EXPECT_EQ(merge.shard_files, workers);
    EXPECT_EQ(merge.torn_lines, torn) << "seed " << trial_seed;
    // The property: byte-identical to the serial manifest, wall_seconds
    // included, because the merge re-emits the original line bytes.
    EXPECT_EQ(slurp(paths.merged()), serial.manifest_text)
        << "seed " << trial_seed;
    // And the aggregates match the serial report's.
    EXPECT_EQ(merge.report.recovered, serial.report.recovered);
    EXPECT_EQ(merge.report.worst_droop, serial.report.worst_droop);
    EXPECT_EQ(merge.report.config_hash, serial.report.config_hash);
    EXPECT_FALSE(merge.report.cancelled);
    fs::remove_all(paths.root);
  }
}

TEST(MergeJobTest, QuarantinedTrialIsAccountedNotCancelled) {
  const SerialRun& serial = serial_run();
  const JobPaths paths = fresh_job("quarantine");
  std::vector<std::string> lines = serial.lines;
  lines.erase(lines.begin() + 3);  // trial 3 never committed...
  write_shard(paths, "w0", lines);
  // ...because its chunk was quarantined (chunk == trial at chunk=1).
  std::ofstream(paths.quarantine(3)) << "{\"chunk\":3}\n";

  const MergeReport merge = merge_job(ctx(), paths.root);
  EXPECT_FALSE(merge.clean());
  EXPECT_EQ(merge.committed, serial.lines.size() - 1);
  ASSERT_EQ(merge.quarantined_trials.size(), 1u);
  EXPECT_EQ(merge.quarantined_trials[0], 3u);
  EXPECT_TRUE(merge.missing_trials.empty());
  // Quarantine is a terminal verdict, not a truncation.
  EXPECT_FALSE(merge.report.cancelled);
  fs::remove_all(paths.root);
}

TEST(MergeJobTest, UnresolvedTrialIsMissingAndMarksTheReportCancelled) {
  const SerialRun& serial = serial_run();
  const JobPaths paths = fresh_job("missing");
  std::vector<std::string> lines = serial.lines;
  lines.pop_back();  // last trial neither committed nor quarantined
  write_shard(paths, "w0", lines);

  const MergeReport merge = merge_job(ctx(), paths.root);
  EXPECT_FALSE(merge.clean());
  ASSERT_EQ(merge.missing_trials.size(), 1u);
  EXPECT_EQ(merge.missing_trials[0], serial.lines.size() - 1);
  EXPECT_TRUE(merge.report.cancelled);
  fs::remove_all(paths.root);
}

TEST(MergeJobTest, DivergentDuplicateCommitsAreFatal) {
  const SerialRun& serial = serial_run();
  const JobPaths paths = fresh_job("divergent");
  write_shard(paths, "w0", serial.lines);

  // The same trial committed with a DIFFERENT physics result (flip one
  // digit of worst_droop) must abort the merge...
  std::vector<std::string> forged = {serial.lines[0]};
  const auto pos = forged[0].find("\"worst_droop\":");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t digit = forged[0].find_first_of("123456789", pos);
  ASSERT_NE(digit, std::string::npos);
  forged[0][digit] = forged[0][digit] == '1' ? '2' : '1';
  write_shard(paths, "w1", forged);
  EXPECT_THROW(merge_job(ctx(), paths.root), Error);

  // ...while a wall_seconds-only difference is an expected re-execution.
  std::string reran = serial.lines[0];
  const auto wall = reran.find(",\"wall_seconds\":");
  ASSERT_NE(wall, std::string::npos);
  reran = reran.substr(0, wall) + ",\"wall_seconds\":9.5}";
  write_shard(paths, "w1", {reran});
  const MergeReport merge = merge_job(ctx(), paths.root);
  EXPECT_TRUE(merge.clean());
  EXPECT_EQ(merge.duplicates, 1u);
  EXPECT_EQ(slurp(paths.merged()), serial.manifest_text);
  fs::remove_all(paths.root);
}

TEST(MergeJobTest, ShardFromAnotherCampaignIsRefused) {
  const SerialRun& serial = serial_run();
  const JobPaths paths = fresh_job("foreign");
  write_shard(paths, "w0", serial.lines);
  {
    std::ofstream out(paths.shard_manifest("w1"), std::ios::binary);
    out << core::campaign_manifest_header(/*seed=*/999, small_spec().trials,
                                          /*config_hash=*/1)
        << "\n";
  }
  EXPECT_THROW(merge_job(ctx(), paths.root), Error);
  fs::remove_all(paths.root);
}

}  // namespace
}  // namespace vstack::shard
