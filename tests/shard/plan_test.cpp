// Shard job plans (shard/job.h): chunk arithmetic, plan-line round trips,
// publish/load guarding against job-directory reuse, and the config-hash
// identity that ties a plan to the campaign it reconstructs.
#include "shard/job.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "common/error.h"
#include "core/campaign_manifest.h"

namespace vstack::shard {
namespace {

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

std::string temp_job_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "vstack_shard_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(JobSpecTest, ChunkMathCoversEveryTrialExactlyOnce) {
  JobSpec spec = small_spec();
  spec.trials = 10;
  spec.chunk = 3;
  EXPECT_EQ(spec.chunk_count(), 4u);
  EXPECT_EQ(spec.chunk_begin(0), 0u);
  EXPECT_EQ(spec.chunk_end(0), 3u);
  EXPECT_EQ(spec.chunk_begin(3), 9u);
  EXPECT_EQ(spec.chunk_end(3), 10u);  // short tail chunk
  const auto covers_every_trial = [](const JobSpec& s) {
    for (std::size_t t = 0; t < s.trials; ++t) {
      const std::size_t c = s.chunk_of(t);
      EXPECT_LT(c, s.chunk_count());
      EXPECT_GE(t, s.chunk_begin(c));
      EXPECT_LT(t, s.chunk_end(c));
    }
  };
  covers_every_trial(spec);

  // A chunk near SIZE_MAX (--chunk takes any count) is one chunk of every
  // trial, not zero chunks.
  spec.trials = 4;
  spec.chunk = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(spec.chunk_count(), 1u);
  EXPECT_EQ(spec.chunk_end(0), 4u);
  covers_every_trial(spec);
}

TEST(JobSpecTest, ValidateRejectsDegenerateKnobs) {
  JobSpec spec = small_spec();
  spec.chunk = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = small_spec();
  spec.max_attempts = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = small_spec();
  spec.heartbeat_s = spec.lease_expiry_s;  // heartbeat must beat expiry
  EXPECT_THROW(spec.validate(), Error);
}

TEST(PlanLineTest, RoundTripsEveryField) {
  JobSpec spec = small_spec();
  spec.stacked = false;
  spec.imbalance = 0.65;
  spec.scenario_timeout_s = 1.5;
  spec.max_retries = 2;
  spec.retry_relax = 5.0;
  spec.chunk = 2;
  spec.max_attempts = 4;
  spec.lease_expiry_s = 12.5;
  spec.heartbeat_s = 0.25;

  JobSpec back;
  std::uint64_t hash = 0;
  ASSERT_TRUE(parse_plan_line(plan_line(spec, 0xdeadbeefcafe1234ull), back,
                              hash));
  EXPECT_EQ(hash, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(back.stacked, spec.stacked);
  EXPECT_EQ(back.layers, spec.layers);
  EXPECT_EQ(back.grid, spec.grid);
  EXPECT_EQ(back.imbalance, spec.imbalance);
  EXPECT_EQ(back.trials, spec.trials);
  EXPECT_EQ(back.faults_per_trial, spec.faults_per_trial);
  EXPECT_EQ(back.converter_faults_per_trial, spec.converter_faults_per_trial);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.duration_s, spec.duration_s);
  EXPECT_EQ(back.fault_time_s, spec.fault_time_s);
  EXPECT_EQ(back.scenario_timeout_s, spec.scenario_timeout_s);
  EXPECT_EQ(back.max_retries, spec.max_retries);
  EXPECT_EQ(back.retry_relax, spec.retry_relax);
  EXPECT_EQ(back.chunk, spec.chunk);
  EXPECT_EQ(back.max_attempts, spec.max_attempts);
  EXPECT_EQ(back.lease_expiry_s, spec.lease_expiry_s);
  EXPECT_EQ(back.heartbeat_s, spec.heartbeat_s);

  JobSpec junk;
  std::uint64_t junk_hash = 0;
  EXPECT_FALSE(parse_plan_line("{\"kind\":\"vstack-campaign\"}", junk,
                               junk_hash));
}

TEST(JobConfigHashTest, IgnoresSchedulingKnobsButSeesPhysics) {
  const JobSpec spec = small_spec();
  const std::uint64_t base = job_config_hash(ctx(), spec);

  // Sharding knobs are pure scheduling: a jobs=1 serial manifest and an
  // 8-worker fleet must hash (and hence merge) identically.
  JobSpec resharded = spec;
  resharded.chunk = 3;
  resharded.max_attempts = 7;
  resharded.lease_expiry_s = 99.0;
  resharded.heartbeat_s = 0.1;
  EXPECT_EQ(job_config_hash(ctx(), resharded), base);

  JobSpec reseeded = spec;
  reseeded.seed = spec.seed + 1;
  EXPECT_NE(job_config_hash(ctx(), reseeded), base);

  JobSpec rewired = spec;
  rewired.grid = 16;
  EXPECT_NE(job_config_hash(ctx(), rewired), base);
}

TEST(JobConfigHashTest, MatchesTheCampaignManifestHash) {
  const JobSpec spec = small_spec();
  const CampaignSetup setup = make_campaign(ctx(), spec);
  EXPECT_EQ(job_config_hash(ctx(), spec),
            core::campaign_config_hash(setup.config, setup.activities,
                                       setup.options));
}

TEST(PublishPlanTest, IdempotentForSameJobFatalForDifferentJob) {
  const std::string dir = temp_job_dir("publish");
  const JobPaths paths(dir);
  const JobSpec spec = small_spec();
  const std::uint64_t hash = job_config_hash(ctx(), spec);

  publish_plan(paths, spec, hash);
  publish_plan(paths, spec, hash);  // resuming the same job is fine

  std::uint64_t loaded_hash = 0;
  const JobSpec loaded = load_plan(paths, loaded_hash);
  EXPECT_EQ(loaded_hash, hash);
  EXPECT_EQ(loaded.trials, spec.trials);
  EXPECT_EQ(loaded.seed, spec.seed);

  JobSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_THROW(publish_plan(paths, other, job_config_hash(ctx(), other)),
               Error);
  std::filesystem::remove_all(dir);
}

TEST(PublishPlanTest, LoadWithoutPlanIsFatal) {
  const std::string dir = temp_job_dir("empty");
  std::filesystem::create_directories(dir);
  std::uint64_t hash = 0;
  EXPECT_THROW(load_plan(JobPaths(dir), hash), Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vstack::shard
