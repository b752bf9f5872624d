#include "core/sweeps.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

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

/// Sweep shapes for the tests: Figs. 5a/5b read `layer_counts`, Figs. 6/8
/// read `layers` and `converter_counts`.
SweepOptions shape(std::vector<std::size_t> layer_counts,
                   std::vector<std::size_t> converter_counts = {2, 8},
                   std::size_t layers = 8, std::size_t jobs = 1) {
  SweepOptions o;
  o.layer_counts = std::move(layer_counts);
  o.converter_counts = std::move(converter_counts);
  o.layers = layers;
  o.execution.jobs = jobs;
  return o;
}

TEST(Fig5aSweepTest, ReproducesPaperShape) {
  const auto rows = SweepRunner(ctx(), shape({2, 8})).fig5a();
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
  const auto rows = SweepRunner(ctx(), shape({2, 8})).fig5b();
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
  const auto result =
      SweepRunner(ctx(), shape({2, 8})).fig6({0.0, 0.5, 1.0});
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
  SweepOptions options;
  options.fig7_samples = 400;
  options.fig7_seed = 2015;
  const auto summaries = SweepRunner(ctx(), options).fig7();
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
  const auto result =
      SweepRunner(ctx(), shape({2, 8})).fig8({0.1, 0.5, 1.0});
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
  const auto serial = SweepRunner(ctx(), shape({2, 4, 8})).fig5a();
  const auto parallel =
      SweepRunner(ctx(), shape({2, 4, 8}, {2, 8}, 8, 4)).fig5a();
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
  const auto serial =
      SweepRunner(ctx(), shape({2, 8})).fig6({0.0, 0.5, 1.0});
  const auto parallel =
      SweepRunner(ctx(), shape({2, 8}, {2, 8}, 8, 4)).fig6({0.0, 0.5, 1.0});
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
    const auto result =
        SweepRunner(ctx(), shape({2, 8}, converters, layers, jobs))
            .fig6(imbalances);
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

void expect_same_rows(const std::vector<Fig5aRow>& got,
                      const std::vector<Fig5aRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].layers, want[i].layers);
    EXPECT_EQ(bits(got[i].reg_dense), bits(want[i].reg_dense)) << i;
    EXPECT_EQ(bits(got[i].reg_sparse), bits(want[i].reg_sparse)) << i;
    EXPECT_EQ(bits(got[i].reg_few), bits(want[i].reg_few)) << i;
    EXPECT_EQ(bits(got[i].vs_few), bits(want[i].vs_few)) << i;
  }
}

void expect_same_rows(const std::vector<Fig5bRow>& got,
                      const std::vector<Fig5bRow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].layers, want[i].layers);
    EXPECT_EQ(bits(got[i].reg_25), bits(want[i].reg_25)) << i;
    EXPECT_EQ(bits(got[i].reg_50), bits(want[i].reg_50)) << i;
    EXPECT_EQ(bits(got[i].reg_75), bits(want[i].reg_75)) << i;
    EXPECT_EQ(bits(got[i].reg_100), bits(want[i].reg_100)) << i;
    EXPECT_EQ(bits(got[i].vs), bits(want[i].vs)) << i;
  }
}

void expect_same_result(const Fig6Result& got, const Fig6Result& want) {
  EXPECT_EQ(bits(got.reg_dense), bits(want.reg_dense));
  EXPECT_EQ(bits(got.reg_sparse), bits(want.reg_sparse));
  EXPECT_EQ(bits(got.reg_few), bits(want.reg_few));
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].vs_noise.size(), want.rows[r].vs_noise.size());
    for (std::size_t c = 0; c < got.rows[r].vs_noise.size(); ++c) {
      const auto& g = got.rows[r].vs_noise[c];
      const auto& w = want.rows[r].vs_noise[c];
      ASSERT_EQ(g.has_value(), w.has_value()) << r << "," << c;
      if (w) {
        EXPECT_EQ(bits(*g), bits(*w)) << r << "," << c;
      }
    }
  }
}

// One runner shares its plan of solved systems across figures and worker
// threads: whichever figure (and thread) solves a system first, every cell
// keeps the bits of a fresh serial runner per figure.
TEST(SweepParallelTest, SharedPlanParallelMatchesFreshSerialBitwise) {
  const std::vector<double> imbalances{0.0, 0.5, 1.0};
  const auto options = [](std::size_t jobs) {
    return shape({2, 4, 8}, {2, 8}, 8, jobs);
  };
  const auto fig5a = SweepRunner(ctx(), options(1)).fig5a();
  const auto fig5b = SweepRunner(ctx(), options(1)).fig5b();
  const auto fig6 = SweepRunner(ctx(), options(1)).fig6(imbalances);

  {
    SCOPED_TRACE("fig5a, fig5b, fig6");
    const SweepRunner shared(ctx(), options(4));
    expect_same_rows(shared.fig5a(), fig5a);
    expect_same_rows(shared.fig5b(), fig5b);
    expect_same_result(shared.fig6(imbalances), fig6);
  }
  {
    SCOPED_TRACE("fig6, fig5b, fig5a");
    const SweepRunner shared(ctx(), options(4));
    expect_same_result(shared.fig6(imbalances), fig6);
    expect_same_rows(shared.fig5b(), fig5b);
    expect_same_rows(shared.fig5a(), fig5a);
  }
}

// Work ledger of one runner's Figs. 5a, 5b and 6 at a small shape: each
// distinct fully active system is solved once (8 of Fig. 5a's, 6 more of
// Fig. 5b's; the baseline and the Fig. 6 references repeat them), plus one
// solve per Fig. 6 cell on one bind per column, all by CG alone.  Any
// extra solve, bind or dense-LU fallback changes a number here.
TEST(SweepLedgerTest, Figs5And6SolveEachSystemOnce) {
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto before = telemetry::snapshot();
    const SweepRunner runner(ctx(), shape({2, 8}, {2, 8}, 8, jobs));
    ASSERT_EQ(runner.fig5a().size(), 2u);
    ASSERT_EQ(runner.fig5b().size(), 2u);
    ASSERT_EQ(runner.fig6({0.0, 0.5, 1.0}).rows.size(), 3u);
    const auto after = telemetry::snapshot();
    const auto delta = [&](const char* name) {
      return after.counter_value(name) - before.counter_value(name);
    };
#if VSTACK_TELEMETRY_ENABLED
    EXPECT_EQ(delta("pdn.dc.solves"), 20.0) << "pdn.dc.solves";
    EXPECT_EQ(delta("la.solver.binds"), 16.0) << "la.solver.binds";
    EXPECT_EQ(delta("la.cg.calls"), delta("pdn.dc.solves"))
        << "la.cg.calls vs pdn.dc.solves";
    EXPECT_EQ(delta("la.solve.attempts"), delta("la.solve.calls"))
        << "la.solve.attempts vs la.solve.calls";
#else
    EXPECT_EQ(delta("pdn.dc.solves"), 0.0);
#endif
  }
}

// Only Fig. 5a reads TSV lifetimes, and only a solve by Fig. 5a computes
// one: a runner serving Fig. 5b or Fig. 6 pays for no TSV array.  The
// solve counts show it.  After Fig. 5b (10 systems: the baseline is its
// 2-layer `vs`), Fig. 5a solves its 4 new systems and again the 4 that
// Fig. 5b solved without a TSV lifetime (the baseline, reg_few at 2 and 8
// layers, vs_few at 8): 8 solves, where eager TSV lifetimes would leave
// 4.  After Fig. 6 (3 references and 6 cells), Fig. 5a solves 8, its
// references again, where eager lifetimes would leave 5.
TEST(SweepLedgerTest, OnlyFig5aComputesTsvLifetimes) {
  const auto solves = [] {
    return telemetry::snapshot().counter_value("pdn.dc.solves");
  };
  for (const std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto options = shape({2, 8}, {2, 8}, 8, jobs);
    {
      const SweepRunner runner(ctx(), options);
      const double s0 = solves();
      ASSERT_EQ(runner.fig5b().size(), 2u);
      const double s1 = solves();
      ASSERT_EQ(runner.fig5a().size(), 2u);
      const double s2 = solves();
#if VSTACK_TELEMETRY_ENABLED
      EXPECT_EQ(s1 - s0, 10.0) << "pdn.dc.solves of fig5b";
      EXPECT_EQ(s2 - s1, 8.0) << "pdn.dc.solves of fig5a after fig5b";
#else
      EXPECT_EQ(s2 - s0, 0.0);
#endif
    }
    {
      const SweepRunner runner(ctx(), options);
      const double s0 = solves();
      ASSERT_EQ(runner.fig6({0.0, 0.5, 1.0}).rows.size(), 3u);
      const double s1 = solves();
      ASSERT_EQ(runner.fig5a().size(), 2u);
      const double s2 = solves();
#if VSTACK_TELEMETRY_ENABLED
      EXPECT_EQ(s1 - s0, 9.0) << "pdn.dc.solves of fig6";
      EXPECT_EQ(s2 - s1, 8.0) << "pdn.dc.solves of fig5a after fig6";
#else
      EXPECT_EQ(s2 - s0, 0.0);
#endif
    }
  }
}

// A fired deadline keeps the committed prefix: rows nobody computed must
// not come back default-constructed (layers = 0, every value 0).
TEST(SweepDeadlineTest, CancelledSweepsReturnNoRows) {
  ExecutionPolicy cancelled;
  cancelled.deadline = Deadline::cancellable();
  cancelled.deadline.cancel();

  SweepOptions options = shape({2, 4}, {2}, 2);
  options.execution = cancelled;
  const SweepRunner runner(ctx(), options);
  EXPECT_TRUE(runner.fig5a().empty());
  EXPECT_TRUE(runner.fig5b().empty());
  EXPECT_TRUE(runner.fig6({0.0, 0.5}).rows.empty());
  EXPECT_TRUE(runner.fig8({0.1, 0.5}).rows.empty());

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
  SweepOptions options = shape({2, 4}, {2}, 2);
  options.execution = cancelled;
  const SweepRunner runner(ctx(), options);
  const auto dc_solves = [] {
    return telemetry::snapshot().counter_value("pdn.dc.solves");
  };

  double before = dc_solves();
  EXPECT_TRUE(runner.fig5a().empty());
#if VSTACK_TELEMETRY_ENABLED
  EXPECT_EQ(dc_solves() - before, 0.0) << "fig5a";
#endif
  before = dc_solves();
  EXPECT_TRUE(runner.fig5b().empty());
#if VSTACK_TELEMETRY_ENABLED
  EXPECT_EQ(dc_solves() - before, 0.0) << "fig5b";
#endif
  before = dc_solves();
  EXPECT_TRUE(runner.fig6({0.0, 0.5}).rows.empty());
#if VSTACK_TELEMETRY_ENABLED
  EXPECT_EQ(dc_solves() - before, 0.0) << "fig6";
#endif
}

TEST(SweepRunnerTest, RejectsEmptyAxesAndBadPolicy) {
  SweepOptions opts;
  opts.layer_counts.clear();
  EXPECT_THROW(SweepRunner(ctx(), opts), Error);

  SweepOptions bad_policy;
  bad_policy.execution.jobs = 5000;  // past the 4096 pool bound
  EXPECT_THROW(SweepRunner(ctx(), bad_policy), Error);
}

}  // namespace
}  // namespace vstack::core
