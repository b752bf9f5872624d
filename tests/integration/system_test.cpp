// End-to-end system tests: the full pipeline from processor model through
// floorplan, PDN solve, EM, thermal and efficiency -- the paths the
// examples and benches exercise, as assertions.
#include <gtest/gtest.h>

#include <numeric>

#include "core/pad_optimizer.h"
#include "core/sweeps.h"
#include "core/workload_noise.h"
#include "pdn/transient.h"

namespace vstack {
namespace {

const core::StudyContext& ctx() {
  static const core::StudyContext c = [] {
    auto c = core::StudyContext::paper_defaults();
    c.base.grid_nx = c.base.grid_ny = 16;
    return c;
  }();
  return c;
}

TEST(SystemTest, HeadlineAbstractClaims) {
  // The abstract in one test: "significantly improving the EM-lifetime of
  // C4 and TSV array (e.g., up to 5x) while only marginally increasing the
  // average-case voltage noise".
  const std::vector<double> full(8, 1.0);
  const auto reg = core::evaluate_scenario(
      ctx(), core::make_regular(ctx(), 8, pdn::TsvConfig::few(), 0.25), full);
  const auto vs = core::evaluate_scenario(
      ctx(), core::make_stacked(ctx(), 8, pdn::TsvConfig::few(), 8), full);

  EXPECT_GT(vs.tsv_mttf / reg.tsv_mttf, 5.0);
  EXPECT_GT(vs.c4_mttf / reg.c4_mttf, 5.0);

  const auto noise = core::sample_noise_distribution(
      ctx(), core::make_stacked(ctx(), 8, ctx().base.tsv, 8),
      core::SchedulingPolicy::RandomMix, 15, 1);
  EXPECT_LT(noise.mean_noise, 0.02);  // average case stays small
}

TEST(SystemTest, CurrentConservationAcrossTheStack) {
  // With balanced loads the converters idle and all power flows through the
  // off-chip source: supply power = load power + resistive losses.  (With
  // the default IdealRails reference and imbalanced loads, the stiff
  // anchors inject the compensation current, so this bookkeeping only holds
  // balanced -- or in AdjacentRails mode, checked below.)
  pdn::PdnModel model(core::make_stacked(ctx(), 4, ctx().base.tsv, 8),
                      ctx().layer_floorplan);
  const auto sol = model.solve_activities(ctx().core_model,
                                          std::vector<double>(4, 1.0));
  EXPECT_GT(sol.supply_power, sol.load_power);
  EXPECT_GT(sol.resistive_efficiency, 0.95);
  for (double i : sol.c4_pad_currents) {
    EXPECT_GE(i, 0.0);
    EXPECT_LT(i, 1.0);
  }

  // Physically-coupled mode conserves power even under imbalance.
  auto coupled_cfg = core::make_stacked(ctx(), 4, ctx().base.tsv, 8);
  coupled_cfg.converter_reference = pdn::ConverterReference::AdjacentRails;
  pdn::PdnModel coupled(coupled_cfg, ctx().layer_floorplan);
  const auto sol2 = coupled.solve_activities(ctx().core_model,
                                             {1.0, 0.7, 1.0, 0.7});
  EXPECT_GT(sol2.supply_power, sol2.load_power);
}

TEST(SystemTest, SweepRowsInternallyConsistent) {
  core::SweepOptions options;
  options.layer_counts = {2, 4};
  options.layers = 4;
  options.converter_counts = {4, 8};
  const core::SweepRunner sweeps(ctx(), options);
  const auto rows5a = sweeps.fig5a();
  ASSERT_EQ(rows5a.size(), 2u);
  for (const auto& r : rows5a) {
    EXPECT_GT(r.reg_dense, 0.0);
    EXPECT_GT(r.vs_few, 0.0);
  }
  // Monotone degradation with layers for the regular topology.
  EXPECT_LT(rows5a[1].reg_few, rows5a[0].reg_few);

  const auto fig8 = sweeps.fig8({0.2, 0.8});
  for (const auto& row : fig8.rows) {
    for (const auto& v : row.vs_efficiency) {
      if (v) {
        EXPECT_GT(*v, 0.5);
        EXPECT_LT(*v, 1.0);
      }
    }
  }
}

TEST(SystemTest, TransientAndStaticSolversAgreeAtDc) {
  // A transient run with no step must reproduce the static solve.
  pdn::PdnModel model(core::make_regular(ctx(), 2, ctx().base.tsv, 0.25),
                      ctx().layer_floorplan);
  const std::vector<double> acts{0.9, 0.9};
  pdn::PdnTransientOptions opts;
  opts.time_step = 2e-9;
  opts.duration = 40e-9;
  opts.step_time = 0.0;
  const auto tr = pdn::simulate_load_step(model, ctx().core_model, acts,
                                          acts, opts);
  const auto dc = model.solve_activities(ctx().core_model, acts);
  EXPECT_NEAR(tr.final_noise, dc.max_node_deviation_fraction, 2e-3);
}

TEST(SystemTest, AreaBookkeepingConsistent) {
  // The iso-area pairing of Fig. 6 from the component models themselves.
  const double vs_area = ctx().vs_area_overhead(8, pdn::TsvConfig::few());
  const double reg_area =
      ctx().regular_area_overhead(pdn::TsvConfig::dense());
  EXPECT_NEAR(vs_area, reg_area, 0.08);
  // Regular never pays converter area.
  EXPECT_LT(ctx().regular_area_overhead(pdn::TsvConfig::few()), 0.01);
}

TEST(SystemTest, PadOptimizerAgreesWithScenarioEvaluator) {
  core::PadRequirement req;
  req.min_c4_mttf = 0.0;
  req.max_noise_fraction = 0.10;
  const auto r = core::minimize_regular_power_pads(ctx(), 2, req);
  ASSERT_TRUE(r.feasible);
  // Re-evaluate the chosen design and confirm the constraints hold.
  const auto check = core::evaluate_scenario(
      ctx(), core::make_regular(ctx(), 2, ctx().base.tsv, r.knob),
      std::vector<double>(2, 1.0));
  EXPECT_LE(check.solution.max_node_deviation_fraction,
            req.max_noise_fraction);
}

}  // namespace
}  // namespace vstack
