// Imported-grid campaigns: stress ranking, N-1 and Monte Carlo determinism
// (including jobs=N bit-identity), core's sampler on imported grids, the
// deadline contract shared with synthesized stacks, load-scale sweeps, and
// the load-step ride-through transient.
#include "pgio/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string>

#include "common/error.h"
#include "core/study.h"
#include "pgio/reader.h"
#include "power/workload.h"

namespace vstack::pgio {
namespace {

std::string fixture(const std::string& name) {
  return std::string(VSTACK_PGIO_TEST_DATA) + "/" + name;
}

PgNetlist ladder() { return read_netlist_file(fixture("ladder4.spice")); }

TEST(RankByStress, OrdersByCurrentShare) {
  const PgNetlist n = ladder();
  const ImportedGrid grid(n);
  const GridSolution baseline = grid.solve();
  ASSERT_TRUE(baseline.solve_ok);
  const auto ranking = rank_by_stress(grid, baseline);
  ASSERT_EQ(ranking.size(), 3u);
  // Segment currents 3/2/1 A: shares 1/2, 1/3, 1/6, descending.
  EXPECT_EQ(ranking[0].conductor_index, 0u);
  EXPECT_EQ(ranking[1].conductor_index, 1u);
  EXPECT_EQ(ranking[2].conductor_index, 2u);
  EXPECT_NEAR(ranking[0].unit_current, 3.0, 1e-8);
  EXPECT_NEAR(ranking[0].failure_probability, 0.5, 1e-9);
  EXPECT_NEAR(ranking[1].failure_probability, 1.0 / 3.0, 1e-9);
  double total = 0.0;
  for (const auto& e : ranking) total += e.failure_probability;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NMinusOne, RadialLadderStrandsEveryCase) {
  const PgNetlist n = ladder();
  const ImportedGrid grid(n);
  GridCampaignOptions opts;
  opts.exhaustive = true;
  const auto report = run_n_minus_1(grid, opts);
  EXPECT_EQ(report.planned, 3u);
  ASSERT_EQ(report.cases.size(), 3u);
  EXPECT_NEAR(report.base_max_node_deviation_fraction, 0.6, 1e-9);
  // Every segment of a radial ladder is a single point of failure.
  EXPECT_EQ(report.infeasible, 3u);
  for (const auto& c : report.cases) {
    EXPECT_EQ(c.outcome, core::CaseOutcome::Infeasible);
    EXPECT_TRUE(c.solved);  // the solve succeeds; the loads are stranded
    EXPECT_NE(c.diagnostic.find("stranded"), std::string::npos)
        << c.diagnostic;
  }
}

TEST(NMinusOne, MeshedGridSurvivesSingleOpens) {
  // The 3x3 mesh has redundant paths: opening one edge must not strand
  // anything, and the deviation stays within a generous budget.
  const PgNetlist n = read_netlist_file(fixture("mesh3x3.spice"));
  const ImportedGrid grid(n);
  GridCampaignOptions opts;
  opts.exhaustive = true;
  opts.noise_budget_fraction = 0.5;
  const auto report = run_n_minus_1(grid, opts);
  EXPECT_EQ(report.cases.size(), grid.conductors().size());
  EXPECT_EQ(report.infeasible, 0u);
  EXPECT_EQ(report.survivable + report.degraded, report.cases.size());
  EXPECT_GT(report.worst_post_fault_deviation,
            report.base_max_node_deviation_fraction);
}

TEST(Campaigns, ParallelRunsAreBitIdentical) {
  const PgNetlist n = read_netlist_file(fixture("mesh3x3.spice"));
  const ImportedGrid grid(n);
  GridCampaignOptions serial;
  serial.exhaustive = true;
  serial.trials = 12;
  serial.leakage_faults_per_trial = 1;
  GridCampaignOptions parallel = serial;
  parallel.execution.jobs = 4;

  for (const bool monte_carlo : {false, true}) {
    const auto a = monte_carlo ? run_monte_carlo(grid, serial)
                               : run_n_minus_1(grid, serial);
    const auto b = monte_carlo ? run_monte_carlo(grid, parallel)
                               : run_n_minus_1(grid, parallel);
    ASSERT_EQ(a.cases.size(), b.cases.size());
    for (std::size_t i = 0; i < a.cases.size(); ++i) {
      EXPECT_EQ(a.cases[i].label, b.cases[i].label);
      EXPECT_EQ(a.cases[i].outcome, b.cases[i].outcome);
      // Bitwise: same plan, same fresh-copy evaluation, ordered commit.
      EXPECT_EQ(a.cases[i].max_node_deviation_fraction,
                b.cases[i].max_node_deviation_fraction);
    }
    EXPECT_EQ(a.worst_post_fault_deviation, b.worst_post_fault_deviation);
  }
}

std::string fault_signature(const pdn::FaultSet& set) {
  std::string out;
  for (const auto& f : set.faults()) {
    out += std::to_string(static_cast<int>(f.kind)) + ":" +
           std::to_string(f.index) + ":" + std::to_string(f.units) + ":" +
           std::to_string(f.severity) + ";";
  }
  return out;
}

TEST(MonteCarlo, SeedReproducesAndVaries) {
  const PgNetlist n = read_netlist_file(fixture("mesh3x3.spice"));
  const ImportedGrid grid(n);
  GridCampaignOptions opts;
  opts.trials = 10;
  const auto a = run_monte_carlo(grid, opts);
  const auto b = run_monte_carlo(grid, opts);
  ASSERT_EQ(a.cases.size(), 10u);
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    EXPECT_EQ(fault_signature(a.cases[i].faults),
              fault_signature(b.cases[i].faults));
  }

  GridCampaignOptions other = opts;
  other.seed = 1234;
  const auto c = run_monte_carlo(grid, other);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    any_difference |= fault_signature(a.cases[i].faults) !=
                      fault_signature(c.cases[i].faults);
  }
  EXPECT_TRUE(any_difference);
}

TEST(MonteCarlo, TrialsNameDistinctConductors) {
  for (const char* name :
       {"ladder4.spice", "mesh3x3.spice", "twonet_vias.spice"}) {
    const PgNetlist n = read_netlist_file(fixture(name));
    const ImportedGrid grid(n);
    GridCampaignOptions opts;
    opts.exhaustive = true;
    opts.trials = 1000;
    opts.faults_per_trial = 2;
    const auto report = run_monte_carlo(grid, opts);
    ASSERT_EQ(report.cases.size(), opts.trials) << name;
    const std::size_t want =
        std::min(opts.faults_per_trial, report.ranking.size());
    std::size_t short_trials = 0;
    for (const auto& c : report.cases) {
      std::set<std::size_t> conductors;
      for (const auto& f : c.faults.faults()) conductors.insert(f.index);
      if (c.faults.size() != want || conductors.size() != want) {
        ++short_trials;
      }
    }
    EXPECT_EQ(short_trials, 0u) << name << ": trials not naming " << want
                                << " distinct conductors";
  }
}

// One body, both routes: an already-expired deadline truncates the case on
// a synthesized stack and on an imported grid alike.
struct DeadlineRoute {
  const char* name;
  core::ContingencyCase (*evaluate)(const core::ExecutionPolicy& execution);
};

// Test names stay stable: print the route, not the function pointer bytes.
void PrintTo(const DeadlineRoute& route, std::ostream* os) {
  *os << route.name;
}

core::ContingencyCase stacked_case(const core::ExecutionPolicy& execution) {
  static const core::StudyContext ctx = core::StudyContext::paper_defaults();
  auto cfg = core::make_stacked(ctx, 4, pdn::TsvConfig::few(), 8);
  cfg.grid_nx = cfg.grid_ny = 12;
  core::ContingencyOptions options;
  options.execution = execution;
  return core::ContingencyEngine(ctx, cfg).evaluate_case(
      pdn::FaultSet(), power::interleaved_layer_activities(4, 0.5), options);
}

core::ContingencyCase mesh_case(const core::ExecutionPolicy& execution) {
  const PgNetlist n = read_netlist_file(fixture("mesh3x3.spice"));
  const ImportedGrid grid(n);
  GridCampaignOptions options;
  options.execution = execution;
  return evaluate_case(grid, pdn::FaultSet(), options);
}

class ExpiredDeadline : public testing::TestWithParam<DeadlineRoute> {};

TEST_P(ExpiredDeadline, EvaluateCaseIsTruncatedNotSolved) {
  core::ExecutionPolicy execution;
  execution.deadline = Deadline::after(0.0);
  const core::ContingencyCase c = GetParam().evaluate(execution);
  EXPECT_FALSE(c.solved);
  EXPECT_TRUE(c.deadline_truncated);
}

INSTANTIATE_TEST_SUITE_P(
    BothRoutes, ExpiredDeadline,
    testing::Values(DeadlineRoute{"stacked4_12x12", &stacked_case},
                    DeadlineRoute{"mesh3x3", &mesh_case}),
    [](const testing::TestParamInfo<DeadlineRoute>& info) {
      return std::string(info.param.name);
    });

TEST(EvaluateCase, ConverterFaultsAreRejected) {
  const PgNetlist n = ladder();
  const ImportedGrid grid(n);
  EXPECT_THROW(
      evaluate_case(grid, pdn::FaultSet().converter_stuck_off(0), {}, "bad"),
      Error);
}

TEST(EvaluateCase, LeakageFaultSolves) {
  const PgNetlist n = ladder();
  const ImportedGrid grid(n);
  const auto kase = evaluate_case(
      grid, pdn::FaultSet().leakage_to_ground(grid.slot_of("n1_3_0"), 0.05),
      {}, "leak");
  EXPECT_TRUE(kase.solved);
  EXPECT_GT(kase.max_node_deviation_fraction, 0.6);  // worse than baseline
}

TEST(SweepLoadScale, DeviationScalesLinearly) {
  const PgNetlist n = ladder();
  const ImportedGrid grid(n);
  const auto sols = sweep_load_scale(grid, {0.5, 1.0, 2.0}, {});
  ASSERT_EQ(sols.size(), 3u);
  for (const auto& s : sols) ASSERT_TRUE(s.solve_ok) << s.diagnostic;
  EXPECT_NEAR(sols[0].max_deviation_v, 0.3, 1e-8);
  EXPECT_NEAR(sols[1].max_deviation_v, 0.6, 1e-8);
  EXPECT_NEAR(sols[2].max_deviation_v, 1.2, 1e-8);
}

TEST(LoadStep, TransientRecoversToTheNewOperatingPoint) {
  const PgNetlist n = read_netlist_file(fixture("mesh3x3.spice"));
  const ImportedGrid grid(n);
  LoadStepOptions opt;
  opt.step_scale = 2.0;
  opt.duration_s = 200e-9;
  opt.dt_s = 5e-9;
  const LoadStepReport r = simulate_load_step(grid, opt);
  ASSERT_TRUE(r.solve_ok) << r.diagnostic;
  EXPECT_EQ(r.steps, 40u);
  EXPECT_TRUE(r.recovered);
  EXPECT_GE(r.recovery_time_s, 0.0);
  EXPECT_LE(r.recovery_time_s, opt.duration_s);
  // Doubling the load roughly doubles the settled deviation, and the
  // transient can never undershoot the settled endpoint metrics.
  EXPECT_NEAR(r.post_step_deviation_v, 2.0 * r.pre_step_deviation_v, 1e-6);
  EXPECT_GE(r.worst_deviation_v, r.post_step_deviation_v - 1e-12);
  EXPECT_GT(r.worst_droop_v, 0.0);
  EXPECT_LT(r.final_error_v, 1e-6);
}

TEST(LoadStep, RejectsAStepThatDoesNotTileTheWindow) {
  const PgNetlist n = ladder();
  const ImportedGrid grid(n);
  LoadStepOptions opt;
  opt.duration_s = 1e-8;
  opt.dt_s = 3e-9;  // 3.33 steps: a fourth would overrun the window
  try {
    simulate_load_step(grid, opt);
    FAIL() << "expected the window to be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not divide"), std::string::npos) << what;
    EXPECT_NE(what.find("1e-08"), std::string::npos) << what;
    EXPECT_NE(what.find("3e-09"), std::string::npos) << what;
  }
}

TEST(LoadStep, RejectsAWindowBeyondTheStepBudget) {
  const PgNetlist n = ladder();
  const ImportedGrid grid(n);
  LoadStepOptions opt;
  opt.duration_s = 1.0;
  opt.dt_s = 1e-20;  // 10^20 steps
  try {
    simulate_load_step(grid, opt);
    FAIL() << "expected the window to be rejected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("step budget of 2000000"), std::string::npos) << what;
    EXPECT_NE(what.find("window 1 s"), std::string::npos) << what;
    EXPECT_NE(what.find("1e-20"), std::string::npos) << what;
  }
}

TEST(LoadStep, TrivialGridIsImmediatelyRecovered) {
  const PgNetlist n = read_netlist_text("V1 a 0 1.0\nR1 a 0 10\n.end\n");
  const ImportedGrid grid(n);
  const LoadStepReport r = simulate_load_step(grid, {});
  EXPECT_TRUE(r.solve_ok);
  EXPECT_TRUE(r.recovered);
}

}  // namespace
}  // namespace vstack::pgio
