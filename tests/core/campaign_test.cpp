// Crash-safe transient campaign runner (core/campaign.h): plan/evaluate
// determinism against the DC Monte Carlo, JSONL checkpoint round-tripping,
// partial resume after truncation, and refusal of mismatched manifests.
#include "core/campaign.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/campaign_manifest.h"
#include "power/workload.h"
#include "telemetry/telemetry.h"

namespace vstack::core {
namespace {

const StudyContext& ctx() {
  static const StudyContext c = StudyContext::paper_defaults();
  return c;
}

pdn::StackupConfig stacked4() {
  auto cfg = make_stacked(ctx(), 4, pdn::TsvConfig::few(), 8);
  cfg.grid_nx = cfg.grid_ny = 8;
  return cfg;
}

std::vector<double> acts4() {
  return power::interleaved_layer_activities(4, 0.8);
}

CampaignOptions fast_options(std::uint64_t seed = 42) {
  CampaignOptions o;
  o.contingency.trials = 4;
  o.contingency.faults_per_trial = 2;
  o.contingency.converter_faults_per_trial = 8;
  o.contingency.seed = seed;
  o.ride_through.transient.time_step = 2e-9;
  o.ride_through.transient.duration = 200e-9;
  o.ride_through.supervisor.trip_fraction = 0.10;
  o.ride_through.supervisor.recovery_fraction = 0.08;
  o.ride_through.supervisor.sense_interval = 5e-9;
  o.ride_through.supervisor.detection_latency = 20e-9;
  o.ride_through.supervisor.action_dwell = 40e-9;
  o.ride_through.supervisor.watchdog_timeout = 120e-9;
  o.fault_time = 50e-9;
  // Wall-clock budgets couple results to machine speed: an oversubscribed
  // parallel run (or a TSan build) can trip a timeout serial would not and
  // diverge via the relaxed-tolerance retry.  Determinism tests must not
  // depend on how fast the host is.
  o.scenario_timeout_s = 0.0;
  return o;
}

void expect_scenarios_identical(const CampaignReport& a,
                                const CampaignReport& b) {
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    const auto& x = a.scenarios[i];
    const auto& y = b.scenarios[i];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.scenario_hash, y.scenario_hash);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.timed_out, y.timed_out);
    // Bit-identical doubles: the manifest round-trips through %.17g.
    EXPECT_EQ(x.detected_at, y.detected_at) << "scenario " << i;
    EXPECT_EQ(x.recovered_at, y.recovered_at) << "scenario " << i;
    EXPECT_EQ(x.worst_droop, y.worst_droop) << "scenario " << i;
    EXPECT_EQ(x.final_droop, y.final_droop) << "scenario " << i;
    EXPECT_EQ(x.action_count, y.action_count);
    EXPECT_EQ(x.shutdown_count, y.shutdown_count);
  }
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.worst_droop, b.worst_droop);
  EXPECT_EQ(a.config_hash, b.config_hash);
}

TEST(CampaignPlanTest, PlanMatchesRunMonteCarloFaultSets) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions opts;
  opts.trials = 5;
  opts.faults_per_trial = 2;
  opts.converter_faults_per_trial = 2;
  opts.leakage_faults_per_trial = 1;
  opts.seed = 7;

  const auto plan = engine.plan_monte_carlo(acts4(), opts);
  const auto report = engine.run_monte_carlo(acts4(), opts);
  ASSERT_EQ(plan.size(), 5u);
  ASSERT_EQ(report.cases.size(), 5u);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].index, i);
    EXPECT_EQ(plan[i].label, report.cases[i].label);
    const auto& pf = plan[i].faults.faults();
    const auto& rf = report.cases[i].faults.faults();
    ASSERT_EQ(pf.size(), rf.size()) << "trial " << i;
    for (std::size_t j = 0; j < pf.size(); ++j) {
      EXPECT_EQ(static_cast<int>(pf[j].kind), static_cast<int>(rf[j].kind));
      EXPECT_EQ(pf[j].index, rf[j].index);
      EXPECT_EQ(pf[j].units, rf[j].units);
      EXPECT_EQ(pf[j].severity, rf[j].severity);
    }
  }
}

TEST(CampaignRunnerTest, ClassifiesEveryScenario) {
  const CampaignRunner runner(ctx(), stacked4());
  const auto report = runner.run(acts4(), fast_options());
  ASSERT_EQ(report.scenarios.size(), 4u);
  EXPECT_EQ(report.evaluated, 4u);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(report.recovered + report.degraded + report.lost, 4u);
  EXPECT_NE(report.config_hash, 0u);
  for (const auto& s : report.scenarios) {
    EXPECT_FALSE(s.label.empty());
    EXPECT_NE(s.scenario_hash, 0u);
    EXPECT_GE(s.attempts, 1u);
    EXPECT_FALSE(s.from_checkpoint);
  }
  EXPECT_FALSE(report.summary().empty());
}

TEST(CampaignRunnerTest, ManifestResumeIsBitIdentical) {
  const std::string manifest =
      ::testing::TempDir() + "/campaign_resume.jsonl";
  std::remove(manifest.c_str());

  CampaignOptions opts = fast_options();
  opts.manifest_path = manifest;
  const CampaignRunner runner(ctx(), stacked4());

  const auto full = runner.run(acts4(), opts);
  ASSERT_EQ(full.evaluated, 4u);

  // Second run with the same manifest: everything restores, nothing is
  // simulated, and the aggregates are bit-identical.
  const auto resumed = runner.run(acts4(), opts);
  EXPECT_EQ(resumed.resumed, 4u);
  EXPECT_EQ(resumed.evaluated, 0u);
  for (const auto& s : resumed.scenarios) EXPECT_TRUE(s.from_checkpoint);
  expect_scenarios_identical(full, resumed);
}

TEST(CampaignRunnerTest, TruncatedManifestResumesTheRemainder) {
  const std::string manifest =
      ::testing::TempDir() + "/campaign_truncated.jsonl";
  std::remove(manifest.c_str());

  CampaignOptions opts = fast_options();
  opts.manifest_path = manifest;
  const CampaignRunner runner(ctx(), stacked4());
  const auto full = runner.run(acts4(), opts);
  ASSERT_EQ(full.evaluated, 4u);

  // Simulate a crash after two scenarios: keep the header + 2 lines plus a
  // torn (half-written) third line, which the loader must skip.
  std::vector<std::string> lines;
  {
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);  // header + 4 scenarios
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n";
    out << lines[3].substr(0, lines[3].size() / 2);  // torn write
  }

  const auto resumed = runner.run(acts4(), opts);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.evaluated, 2u);
  expect_scenarios_identical(full, resumed);
}

TEST(CampaignRunnerTest, TornTailManifestIsRepairedOnResume) {
  const std::string manifest =
      ::testing::TempDir() + "/campaign_torn_repair.jsonl";
  std::remove(manifest.c_str());

  CampaignOptions opts = fast_options();
  opts.manifest_path = manifest;
  const CampaignRunner runner(ctx(), stacked4());
  const auto full = runner.run(acts4(), opts);
  ASSERT_EQ(full.evaluated, 4u);

  std::vector<std::string> lines;
  {
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n";
    out << lines[3].substr(0, lines[3].size() / 2);  // kill -9 mid-append
  }

  // The resume must terminate the fragment BEFORE appending: otherwise its
  // first committed scenario concatenates onto the torn line, producing
  // garbage and losing that record -- which the third run would expose as
  // a re-evaluation.
  const auto resumed = runner.run(acts4(), opts);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.evaluated, 2u);
  expect_scenarios_identical(full, resumed);

  const auto third = runner.run(acts4(), opts);
  EXPECT_EQ(third.resumed, 4u);
  EXPECT_EQ(third.evaluated, 0u);
  expect_scenarios_identical(full, third);
}

TEST(CampaignRunnerTest, MismatchedManifestIsRefused) {
  const std::string manifest =
      ::testing::TempDir() + "/campaign_mismatch.jsonl";
  std::remove(manifest.c_str());

  CampaignOptions opts = fast_options(/*seed=*/42);
  opts.manifest_path = manifest;
  const CampaignRunner runner(ctx(), stacked4());
  (void)runner.run(acts4(), opts);

  // A different seed is a different campaign: refusing beats silently
  // mixing two campaigns' scenarios in one manifest.
  CampaignOptions other = fast_options(/*seed=*/43);
  other.manifest_path = manifest;
  EXPECT_THROW(runner.run(acts4(), other), Error);
}

TEST(CampaignOptionsTest, ValidateRejectsBrokenShapes) {
  CampaignOptions o = fast_options();
  o.fault_time = o.ride_through.transient.duration;  // strikes after the end
  EXPECT_THROW(o.validate(), Error);

  o = fast_options();
  o.max_retries = 100;  // runaway retry budget
  EXPECT_THROW(o.validate(), Error);

  o = fast_options();
  o.retry_tolerance_relax = 0.5;  // would TIGHTEN tolerances on retry
  EXPECT_THROW(o.validate(), Error);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Blank out every "wall_seconds" value: it is the one measured (therefore
/// run-dependent) manifest field; everything else must match byte for byte.
std::string mask_wall_seconds(const std::string& text) {
  const std::string key = "\"wall_seconds\":";
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  for (;;) {
    const std::size_t hit = text.find(key, pos);
    if (hit == std::string::npos) {
      out.append(text, pos, std::string::npos);
      return out;
    }
    const std::size_t start = hit + key.size();
    std::size_t end = start;
    while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
    out.append(text, pos, start - pos);
    out += 'X';
    pos = end;
  }
}

// The ordered-reduction guarantee, end to end: a jobs=4 campaign produces
// the same scenarios, the same summary() text, and (wall_seconds aside)
// the same manifest BYTES as jobs=1.
TEST(CampaignParallelTest, ParallelRunMatchesSerialBitIdentical) {
  const std::string serial_manifest =
      ::testing::TempDir() + "/campaign_par_serial.jsonl";
  const std::string parallel_manifest =
      ::testing::TempDir() + "/campaign_par_parallel.jsonl";
  std::remove(serial_manifest.c_str());
  std::remove(parallel_manifest.c_str());

  const CampaignRunner runner(ctx(), stacked4());

  CampaignOptions serial_opts = fast_options();
  serial_opts.manifest_path = serial_manifest;
  const auto serial = runner.run(acts4(), serial_opts);

  CampaignOptions parallel_opts = fast_options();
  parallel_opts.manifest_path = parallel_manifest;
  parallel_opts.execution.jobs = 4;
  const auto parallel = runner.run(acts4(), parallel_opts);

  EXPECT_EQ(parallel.evaluated, 4u);
  expect_scenarios_identical(serial, parallel);
  EXPECT_EQ(serial.summary(), parallel.summary());
  EXPECT_EQ(mask_wall_seconds(read_file(serial_manifest)),
            mask_wall_seconds(read_file(parallel_manifest)));
}

// Telemetry is observation-only: a campaign run with the span tracer live
// writes the same manifest BYTES (wall_seconds aside) as one with tracing
// off.  The compile-time half of this guarantee -- a -DVSTACK_TELEMETRY=OFF
// build matching an ON build -- is exercised by the telemetry-off CI job.
TEST(CampaignParallelTest, TracingDoesNotPerturbManifest) {
  const std::string quiet_manifest =
      ::testing::TempDir() + "/campaign_tel_quiet.jsonl";
  const std::string traced_manifest =
      ::testing::TempDir() + "/campaign_tel_traced.jsonl";
  std::remove(quiet_manifest.c_str());
  std::remove(traced_manifest.c_str());

  const CampaignRunner runner(ctx(), stacked4());

  telemetry::set_tracing_enabled(false);
  CampaignOptions quiet_opts = fast_options();
  quiet_opts.manifest_path = quiet_manifest;
  quiet_opts.execution.jobs = 4;
  const auto quiet = runner.run(acts4(), quiet_opts);

  telemetry::set_tracing_enabled(true);
  CampaignOptions traced_opts = fast_options();
  traced_opts.manifest_path = traced_manifest;
  traced_opts.execution.jobs = 4;
  const auto traced = runner.run(acts4(), traced_opts);
  const auto events = telemetry::collect_trace();
  telemetry::set_tracing_enabled(false);

  expect_scenarios_identical(quiet, traced);
  EXPECT_EQ(mask_wall_seconds(read_file(quiet_manifest)),
            mask_wall_seconds(read_file(traced_manifest)));
#if VSTACK_TELEMETRY_ENABLED
  // The traced run must actually have recorded campaign spans, or the
  // comparison above is vacuous.
  bool saw_campaign_span = false;
  for (const auto& e : events) {
    if (e.name == "core.campaign.scenario") saw_campaign_span = true;
  }
  EXPECT_TRUE(saw_campaign_span);
#else
  EXPECT_TRUE(events.empty());
#endif
}

// Manifests are interchangeable across policies in BOTH directions: the
// prefix property holds no matter which mode wrote the file.
TEST(CampaignParallelTest, SerialManifestResumesUnderParallelAndViceVersa) {
  const CampaignRunner runner(ctx(), stacked4());

  const auto truncate_to_two = [](const std::string& manifest) {
    std::vector<std::string> lines;
    std::ifstream in(manifest);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 5u);  // header + 4 scenarios
    std::ofstream out(manifest, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n";
  };

  for (const bool serial_writes : {true, false}) {
    const std::string manifest = ::testing::TempDir() +
                                 "/campaign_cross_resume_" +
                                 (serial_writes ? "s2p" : "p2s") + ".jsonl";
    std::remove(manifest.c_str());

    CampaignOptions writer = fast_options();
    writer.manifest_path = manifest;
    writer.execution.jobs = serial_writes ? 1 : 4;
    const auto full = runner.run(acts4(), writer);
    ASSERT_EQ(full.evaluated, 4u);

    truncate_to_two(manifest);

    CampaignOptions resumer = writer;
    resumer.execution.jobs = serial_writes ? 4 : 1;
    const auto resumed = runner.run(acts4(), resumer);
    EXPECT_EQ(resumed.resumed, 2u) << (serial_writes ? "s2p" : "p2s");
    EXPECT_EQ(resumed.evaluated, 2u);
    expect_scenarios_identical(full, resumed);
  }
}

TEST(CampaignCompareTest, SurvivabilityTableCoversBothTopologies) {
  CampaignOptions opts = fast_options();
  opts.contingency.trials = 2;
  auto regular = make_regular(ctx(), 4, pdn::TsvConfig::few(), 0.25);
  regular.grid_nx = regular.grid_ny = 8;
  // Regular PDNs have no converters to lose; keep the conductor faults.
  const auto table =
      compare_survivability(ctx(), stacked4(), regular, acts4(), opts);
  ASSERT_EQ(table.rows.size(), 2u);
  for (const auto& row : table.rows) {
    EXPECT_EQ(row.recovered + row.degraded + row.lost, 2u);
  }
  const std::string text = table.format();
  EXPECT_NE(text.find("stacked"), std::string::npos);
  EXPECT_NE(text.find("regular"), std::string::npos);
}

TEST(CampaignConfigHashTest, SeesSupplyVoltageBeyondSixDigits) {
  // The hash covers the config through write_stackup_config, which must
  // therefore print every digit that tells two supplies apart.
  pdn::StackupConfig a = stacked4();
  pdn::StackupConfig b = stacked4();
  a.vdd = 1.0;
  b.vdd = 1.0000001;
  EXPECT_NE(campaign_config_hash(a, acts4(), fast_options()),
            campaign_config_hash(b, acts4(), fast_options()));
}

}  // namespace
}  // namespace vstack::core
