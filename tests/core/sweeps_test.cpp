#include "core/sweeps.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.h"
#include "core/design_space.h"
#include "telemetry/telemetry.h"

namespace vstack::core {
namespace {

const StudyContext& ctx() {
  static const StudyContext c = [] {
    StudyContext c = StudyContext::paper_defaults();
    c.base.grid_nx = c.base.grid_ny = 16;
    return c;
  }();
  return c;
}

TEST(Fig5aSweepTest, ReproducesPaperShape) {
  const auto rows = run_fig5a(ctx(), {2, 8});
  ASSERT_EQ(rows.size(), 2u);

  // 2-layer: V-S normalized to ~1 with regular Few in the same lifetime
  // class (the paper puts regular slightly above; our pad-local crowding
  // model slightly below -- documented divergence, see EXPERIMENTS.md).
  EXPECT_NEAR(rows[0].vs_few, 1.0, 0.05);
  EXPECT_GT(rows[0].reg_few, 0.4 * rows[0].vs_few);
  EXPECT_LT(rows[0].reg_few, 2.5 * rows[0].vs_few);

  // Regular degrades steeply with layers ("up to 84%"); V-S barely moves.
  EXPECT_LT(rows[1].reg_few, 0.35 * rows[0].reg_few);
  EXPECT_GT(rows[1].vs_few, 0.80 * rows[0].vs_few);

  // 8-layer gap: V-S more than 3x the best regular allocation.
  EXPECT_GT(rows[1].vs_few / rows[1].reg_few, 3.0);

  // More TSVs help the regular PDN, but only marginally.
  EXPECT_GT(rows[1].reg_dense, rows[1].reg_few);
  EXPECT_LT(rows[1].reg_dense, rows[1].vs_few);
}

TEST(Fig5bSweepTest, ReproducesPaperShape) {
  const auto rows = run_fig5b(ctx(), {2, 8});
  ASSERT_EQ(rows.size(), 2u);

  // V-S flat at ~1 across layer counts.
  EXPECT_NEAR(rows[0].vs, 1.0, 0.05);
  EXPECT_NEAR(rows[1].vs, 1.0, 0.08);

  // Regular C4 MTTF degrades quickly with scaling.
  EXPECT_LT(rows[1].reg_25, 0.35 * rows[0].reg_25);

  // More power pads help monotonically, but even 100% stays well below
  // V-S at 8 layers ("not feasible to match V-S by allocating more pads").
  EXPECT_GT(rows[1].reg_50, rows[1].reg_25);
  EXPECT_GT(rows[1].reg_75, rows[1].reg_50);
  EXPECT_GT(rows[1].reg_100, rows[1].reg_75);
  EXPECT_GT(rows[1].vs / rows[1].reg_100, 3.0);
}

TEST(Fig6SweepTest, ReproducesPaperShape) {
  const auto result = run_fig6(ctx(), 8, {2, 8}, {0.0, 0.5, 1.0});
  ASSERT_EQ(result.rows.size(), 3u);

  // Regular reference ordering: fewer TSVs => more noise.
  EXPECT_LT(result.reg_dense, result.reg_sparse);
  EXPECT_LT(result.reg_sparse, result.reg_few);

  // V-S noise grows with imbalance; fewer converters => more noise.
  const auto& r0 = result.rows[0];
  const auto& r1 = result.rows[1];
  ASSERT_TRUE(r0.vs_noise[1].has_value());
  ASSERT_TRUE(r1.vs_noise[1].has_value());
  EXPECT_GT(*r1.vs_noise[1], *r0.vs_noise[1]);

  // 2 conv/core exceeds the 100 mA limit by 50% imbalance (skipped point).
  EXPECT_FALSE(r1.vs_noise[0].has_value());
  // 8 conv/core survives the full sweep.
  EXPECT_TRUE(result.rows[2].vs_noise[1].has_value());

  // At low imbalance the iso-area V-S design beats regular Dense; at 100%
  // it loses (the paper's ~50% crossover).
  EXPECT_LT(*r0.vs_noise[1], result.reg_dense);
  EXPECT_GT(*result.rows[2].vs_noise[1], result.reg_dense);
}

TEST(Fig7SweepTest, CampaignStatistics) {
  const auto summaries = run_fig7(ctx(), 400, 2015);
  ASSERT_EQ(summaries.size(), 13u);
  double mean_imb = power::mean_max_imbalance(summaries);
  EXPECT_GT(mean_imb, 0.55);
  EXPECT_LT(mean_imb, 0.72);
  for (const auto& s : summaries) {
    EXPECT_LE(s.power.min, s.power.median);
    EXPECT_LE(s.power.median, s.power.max);
  }
}

TEST(Fig8SweepTest, ReproducesPaperShape) {
  const auto result = run_fig8(ctx(), 8, {2, 8}, {0.1, 0.5, 1.0});
  ASSERT_EQ(result.rows.size(), 3u);

  // Efficiency decreases with imbalance for a given converter count.
  ASSERT_TRUE(result.rows[0].vs_efficiency[1].has_value());
  ASSERT_TRUE(result.rows[2].vs_efficiency[1].has_value());
  EXPECT_GT(*result.rows[0].vs_efficiency[1],
            *result.rows[2].vs_efficiency[1]);

  // Fewer converters => higher efficiency where feasible.
  ASSERT_TRUE(result.rows[0].vs_efficiency[0].has_value());
  EXPECT_GT(*result.rows[0].vs_efficiency[0],
            *result.rows[0].vs_efficiency[1]);

  // 2 conv/core infeasible at 100% imbalance.
  EXPECT_FALSE(result.rows[2].vs_efficiency[0].has_value());

  // V-S beats the regular-with-SC baseline at moderate imbalance.
  EXPECT_GT(*result.rows[1].vs_efficiency[1], result.rows[1].regular_sc);
}

// Worker-pool determinism: figure rows land in sweep order, so jobs=4
// output is bitwise identical to the serial run.
TEST(SweepParallelTest, Fig5aParallelMatchesSerialBitwise) {
  const auto serial = run_fig5a(ctx(), {2, 4, 8});
  const auto parallel =
      run_fig5a(ctx(), {2, 4, 8}, ExecutionPolicy::parallel(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].layers, parallel[i].layers);
    EXPECT_EQ(serial[i].reg_dense, parallel[i].reg_dense);
    EXPECT_EQ(serial[i].reg_sparse, parallel[i].reg_sparse);
    EXPECT_EQ(serial[i].reg_few, parallel[i].reg_few);
    EXPECT_EQ(serial[i].vs_few, parallel[i].vs_few);
  }
}

TEST(SweepParallelTest, Fig6ParallelMatchesSerialBitwise) {
  const auto serial = run_fig6(ctx(), 8, {2, 8}, {0.0, 0.5, 1.0});
  const auto parallel = run_fig6(ctx(), 8, {2, 8}, {0.0, 0.5, 1.0},
                                 ExecutionPolicy::parallel(4));
  EXPECT_EQ(serial.reg_dense, parallel.reg_dense);
  EXPECT_EQ(serial.reg_sparse, parallel.reg_sparse);
  EXPECT_EQ(serial.reg_few, parallel.reg_few);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t r = 0; r < serial.rows.size(); ++r) {
    EXPECT_EQ(serial.rows[r].imbalance, parallel.rows[r].imbalance);
    ASSERT_EQ(serial.rows[r].vs_noise.size(),
              parallel.rows[r].vs_noise.size());
    for (std::size_t c = 0; c < serial.rows[r].vs_noise.size(); ++c) {
      EXPECT_EQ(serial.rows[r].vs_noise[c].has_value(),
                parallel.rows[r].vs_noise[c].has_value());
      if (serial.rows[r].vs_noise[c]) {
        EXPECT_EQ(*serial.rows[r].vs_noise[c], *parallel.rows[r].vs_noise[c]);
      }
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Fig. 6 solves each converter count's column on one model from cold
// starts; every cell must keep the bits of the historic loop, one fresh
// PdnModel per (imbalance, converter count) point, at any job count.
TEST(SweepParallelTest, Fig6MatchesFreshModelPerPointBitwise) {
  const std::size_t layers = 8;
  const std::vector<std::size_t> converters{2, 4, 8};
  const std::vector<double> imbalances{0.0, 0.25, 0.5, 0.75, 1.0};

  std::vector<std::vector<std::optional<double>>> reference;
  for (const double imbalance : imbalances) {
    auto& row = reference.emplace_back();
    for (const std::size_t conv : converters) {
      const pdn::PdnModel model(
          make_stacked(ctx(), layers, ctx().base.tsv, conv),
          ctx().layer_floorplan);
      const auto sol = model.solve_activities(
          ctx().core_model,
          power::interleaved_layer_activities(layers, imbalance));
      row.push_back(sol.converter_limit_ok
                        ? std::optional(sol.max_node_deviation_fraction)
                        : std::nullopt);
    }
  }
  ASSERT_FALSE(reference.back().front().has_value())
      << "the grid must include a limit-violating point";
  const auto reference_noise = [&](const pdn::TsvConfig& tsv) {
    const pdn::PdnModel model(
        make_regular(ctx(), layers, tsv, ctx().base.power_c4_fraction),
        ctx().layer_floorplan);
    return model
        .solve_activities(ctx().core_model, std::vector<double>(layers, 1.0))
        .max_node_deviation_fraction;
  };

  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto result = run_fig6(ctx(), layers, converters, imbalances,
                                 ExecutionPolicy::parallel(jobs));
    EXPECT_EQ(bits(result.reg_dense),
              bits(reference_noise(pdn::TsvConfig::dense())));
    EXPECT_EQ(bits(result.reg_sparse),
              bits(reference_noise(pdn::TsvConfig::sparse())));
    EXPECT_EQ(bits(result.reg_few),
              bits(reference_noise(pdn::TsvConfig::few())));
    ASSERT_EQ(result.rows.size(), imbalances.size());
    for (std::size_t r = 0; r < imbalances.size(); ++r) {
      EXPECT_EQ(bits(result.rows[r].imbalance), bits(imbalances[r]));
      ASSERT_EQ(result.rows[r].vs_noise.size(), converters.size());
      for (std::size_t c = 0; c < converters.size(); ++c) {
        const auto& want = reference[r][c];
        const auto& got = result.rows[r].vs_noise[c];
        ASSERT_EQ(want.has_value(), got.has_value()) << r << "," << c;
        if (want) {
          EXPECT_EQ(bits(*want), bits(*got)) << r << "," << c;
        }
      }
    }
  }
}

// The facade must be a pure re-plumbing of the free functions: same rows,
// no behavior of its own.
TEST(SweepRunnerTest, FacadeMatchesFreeFunctions) {
  SweepOptions opts;
  opts.layer_counts = {2, 8};
  opts.execution.jobs = 2;
  const SweepRunner runner(ctx(), opts);

  const auto direct = run_fig5a(ctx(), {2, 8});
  const auto via_facade = runner.fig5a();
  ASSERT_EQ(via_facade.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_facade[i].layers, direct[i].layers);
    EXPECT_EQ(via_facade[i].vs_few, direct[i].vs_few);
    EXPECT_EQ(via_facade[i].reg_few, direct[i].reg_few);
  }
}

// A fired deadline keeps the committed prefix: rows nobody computed must
// not come back default-constructed (layers = 0, every value 0).
TEST(SweepDeadlineTest, CancelledSweepsReturnNoRows) {
  ExecutionPolicy cancelled;
  cancelled.deadline = Deadline::cancellable();
  cancelled.deadline.cancel();

  EXPECT_TRUE(run_fig5a(ctx(), {2, 4}, cancelled).empty());
  EXPECT_TRUE(run_fig5b(ctx(), {2, 4}, cancelled).empty());
  EXPECT_TRUE(run_fig6(ctx(), 2, {2}, {0.0, 0.5}, cancelled).rows.empty());
  EXPECT_TRUE(run_fig8(ctx(), 2, {2}, {0.1, 0.5}, cancelled).rows.empty());

  DesignSpaceOptions designs;
  designs.layers = 2;
  designs.regular_c4_fractions = {1.0};
  designs.stacked_converter_counts = {2};
  designs.execution = cancelled;
  EXPECT_TRUE(enumerate_designs(ctx(), designs).empty());
}

// An expired deadline must not pay for work no row will use: not the
// Fig. 5 baseline, not the Fig. 6 references.
TEST(SweepDeadlineTest, ExpiredDeadlineSolvesNothing) {
  ExecutionPolicy cancelled;
  cancelled.deadline = Deadline::cancellable();
  cancelled.deadline.cancel();
  const auto dc_solves = [] {
    return telemetry::snapshot().counter_value("pdn.dc.solves");
  };

  double before = dc_solves();
  EXPECT_TRUE(run_fig5a(ctx(), {2, 4}, cancelled).empty());
#if VSTACK_TELEMETRY_ENABLED
  EXPECT_EQ(dc_solves() - before, 0.0) << "fig5a";
#endif
  before = dc_solves();
  EXPECT_TRUE(run_fig5b(ctx(), {2, 4}, cancelled).empty());
#if VSTACK_TELEMETRY_ENABLED
  EXPECT_EQ(dc_solves() - before, 0.0) << "fig5b";
#endif
  before = dc_solves();
  EXPECT_TRUE(run_fig6(ctx(), 2, {2}, {0.0, 0.5}, cancelled).rows.empty());
#if VSTACK_TELEMETRY_ENABLED
  EXPECT_EQ(dc_solves() - before, 0.0) << "fig6";
#endif
}

TEST(SweepRunnerTest, RejectsEmptyAxesAndBadPolicy) {
  SweepOptions opts;
  opts.layer_counts.clear();
  EXPECT_THROW(SweepRunner(ctx(), opts), Error);

  SweepOptions bad_policy;
  bad_policy.execution.chunk = 0;
  EXPECT_THROW(SweepRunner(ctx(), bad_policy), Error);
}

}  // namespace
}  // namespace vstack::core
