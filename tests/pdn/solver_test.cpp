#include "pdn/solver.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>

#include "common/error.h"
#include "floorplan/floorplan.h"
#include "pdn/fault.h"
#include "power/workload.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn {
namespace {

const floorplan::Floorplan& paper_fp() {
  static const floorplan::Floorplan fp = floorplan::paper_layer_floorplan();
  return fp;
}

const power::CorePowerModel& cpm() {
  static const power::CorePowerModel m =
      power::CorePowerModel::cortex_a9_like();
  return m;
}

StackupConfig small_regular(std::size_t layers) {
  StackupConfig cfg;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = 16;
  return cfg;
}

StackupConfig small_stacked(std::size_t layers) {
  StackupConfig cfg;
  cfg.topology = PdnTopology::VoltageStacked;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = 16;
  return cfg;
}

TEST(PdnSolverTest, RegularCurrentConservation) {
  PdnModel model(small_regular(2), paper_fp());
  const auto sol = model.solve_activities(cpm(), {1.0, 1.0});
  // All load current comes from the single off-chip source.
  EXPECT_NEAR(sol.supply_current, 15.2, 1e-3);
  // Pad currents split between Vdd and Gnd sides, each carrying the total.
  const double pad_sum = std::accumulate(sol.c4_pad_currents.begin(),
                                         sol.c4_pad_currents.end(), 0.0);
  EXPECT_NEAR(pad_sum, 2.0 * 15.2, 0.01);
}

TEST(PdnSolverTest, RegularIrDropPositiveAndModest) {
  PdnModel model(small_regular(2), paper_fp());
  const auto sol = model.solve_activities(cpm(), {1.0, 1.0});
  EXPECT_GT(sol.max_ir_drop_fraction, 0.001);
  EXPECT_LT(sol.max_ir_drop_fraction, 0.05);
  EXPECT_DOUBLE_EQ(sol.max_overshoot_fraction, 0.0);  // no push anywhere
  EXPECT_TRUE(sol.report.converged);
}

TEST(PdnSolverTest, MoreLayersMoreNoiseRegular) {
  PdnModel two(small_regular(2), paper_fp());
  PdnModel eight(small_regular(8), paper_fp());
  const auto s2 = two.solve_activities(cpm(), std::vector<double>(2, 1.0));
  const auto s8 = eight.solve_activities(cpm(), std::vector<double>(8, 1.0));
  EXPECT_GT(s8.max_node_deviation_fraction,
            2.0 * s2.max_node_deviation_fraction);
}

TEST(PdnSolverTest, DenseTsvReducesRegularNoise) {
  auto cfg_few = small_regular(8);
  cfg_few.tsv = TsvConfig::few();
  auto cfg_dense = small_regular(8);
  cfg_dense.tsv = TsvConfig::dense();
  const auto s_few = PdnModel(cfg_few, paper_fp())
                         .solve_activities(cpm(), std::vector<double>(8, 1.0));
  const auto s_dense =
      PdnModel(cfg_dense, paper_fp())
          .solve_activities(cpm(), std::vector<double>(8, 1.0));
  EXPECT_LT(s_dense.max_node_deviation_fraction,
            s_few.max_node_deviation_fraction);
}

TEST(PdnSolverTest, StackedRecyclesCharge) {
  PdnModel model(small_stacked(4), paper_fp());
  const auto sol = model.solve_activities(cpm(), std::vector<double>(4, 1.0));
  // Balanced stack: off-chip current is ONE layer's worth, at 4x the
  // voltage -- the headline benefit of voltage stacking.
  EXPECT_NEAR(sol.supply_current, 7.6, 0.05);
  EXPECT_DOUBLE_EQ(sol.supply_voltage, 4.0);
  // Converters nearly idle when loads match.
  EXPECT_LT(sol.max_converter_current, 2e-3);
}

TEST(PdnSolverTest, StackedNoiseGrowsWithImbalance) {
  PdnModel model(small_stacked(4), paper_fp());
  const auto balanced = model.solve_activities(
      cpm(), power::interleaved_layer_activities(4, 0.0));
  const auto imbalanced = model.solve_activities(
      cpm(), power::interleaved_layer_activities(4, 0.6));
  EXPECT_GT(imbalanced.max_node_deviation_fraction,
            3.0 * balanced.max_node_deviation_fraction);
}

TEST(PdnSolverTest, MoreConvertersLowerNoise) {
  auto cfg2 = small_stacked(4);
  cfg2.converters_per_core = 2;
  auto cfg8 = small_stacked(4);
  cfg8.converters_per_core = 8;
  const auto acts = power::interleaved_layer_activities(4, 0.5);
  const auto s2 = PdnModel(cfg2, paper_fp()).solve_activities(cpm(), acts);
  const auto s8 = PdnModel(cfg8, paper_fp()).solve_activities(cpm(), acts);
  EXPECT_GT(s2.max_node_deviation_fraction,
            s8.max_node_deviation_fraction);
  // Per-converter load also drops with more converters.
  EXPECT_GT(s2.max_converter_current, 2.0 * s8.max_converter_current);
}

TEST(PdnSolverTest, ConverterLimitFlagged) {
  auto cfg = small_stacked(4);
  cfg.converters_per_core = 2;
  PdnModel model(cfg, paper_fp());
  const auto sol = model.solve_activities(
      cpm(), power::interleaved_layer_activities(4, 1.0));
  EXPECT_FALSE(sol.converter_limit_ok);
  EXPECT_GT(sol.max_converter_current, 0.1);
}

TEST(PdnSolverTest, StackedEmArraysPopulated) {
  auto cfg = small_stacked(4);
  PdnModel model(cfg, paper_fp());
  const auto sol = model.solve_activities(cpm(), std::vector<double>(4, 1.0));
  // Pads: 32 via pads + 32 gnd pads per core.
  EXPECT_EQ(sol.c4_pad_currents.size(), 16u * 64u);
  // TSVs: recycling (3 interfaces * 16 * 55) + via segments (512 * 3).
  EXPECT_EQ(sol.tsv_currents.size(), 3u * 16u * 55u + 512u * 3u);
  for (double i : sol.c4_pad_currents) EXPECT_GE(i, 0.0);
}

TEST(PdnSolverTest, RegularEmArraysPopulated) {
  auto cfg = small_regular(2);
  PdnModel model(cfg, paper_fp());
  const auto sol = model.solve_activities(cpm(), {1.0, 1.0});
  EXPECT_EQ(sol.tsv_currents.size(), 2u * 16u * 55u);  // 1 interface, 2 nets
  EXPECT_GT(sol.c4_pad_currents.size(), 200u);
}

TEST(PdnSolverTest, ViaSegmentsShareCurrent) {
  auto cfg = small_stacked(3);
  PdnModel model(cfg, paper_fp());
  const auto sol = model.solve_activities(cpm(), std::vector<double>(3, 1.0));
  // Through-via segments come in runs of (layers-1) identical currents and
  // precede the recycling TSVs (stacked topology emits vias first).
  const std::size_t recycling = 2u * 16u * 55u;
  ASSERT_EQ(sol.tsv_currents.size(), recycling + 512u * 2u);
  for (std::size_t v = 0; v + 1 < 512u * 2u; v += 2) {
    EXPECT_DOUBLE_EQ(sol.tsv_currents[v], sol.tsv_currents[v + 1]);
  }
}

TEST(PdnSolverTest, LoadPowerBelowSupplyPower) {
  PdnModel model(small_regular(4), paper_fp());
  const auto sol = model.solve_activities(cpm(), std::vector<double>(4, 1.0));
  EXPECT_GT(sol.supply_power, sol.load_power);
  EXPECT_GT(sol.resistive_efficiency, 0.90);
  EXPECT_LT(sol.resistive_efficiency, 1.0);
}

TEST(PdnSolverTest, AdjacentRailReferenceAccumulatesSag) {
  // The ablation mode: coupled midpoint references make the droop grow
  // superlinearly with layer count under the interleaved pattern.
  auto ideal = small_stacked(8);
  auto coupled = small_stacked(8);
  coupled.converter_reference = ConverterReference::AdjacentRails;
  const auto acts = power::interleaved_layer_activities(8, 0.5);
  const auto s_ideal = PdnModel(ideal, paper_fp()).solve_activities(cpm(), acts);
  const auto s_coupled =
      PdnModel(coupled, paper_fp()).solve_activities(cpm(), acts);
  EXPECT_GT(s_coupled.max_node_deviation_fraction,
            1.3 * s_ideal.max_node_deviation_fraction);
}

TEST(PdnSolverTest, ClosedLoopControlSolves) {
  auto cfg = small_stacked(4);
  cfg.converter.control = sc::ControlPolicy::ClosedLoop;
  PdnModel model(cfg, paper_fp());
  const auto sol = model.solve_activities(
      cpm(), power::interleaved_layer_activities(4, 0.4));
  EXPECT_TRUE(sol.report.converged);
  EXPECT_GT(sol.max_converter_current, 0.0);
}

TEST(PdnSolverTest, PerCoreSchedulingReducesNoise) {
  // Scheduling identical work on all layers of a core stack (balanced)
  // versus concentrating imbalance -- the paper's Sec. 5.2 suggestion.
  auto cfg = small_stacked(4);
  PdnModel model(cfg, paper_fp());
  std::vector<std::vector<double>> balanced(4, std::vector<double>(16, 0.7));
  std::vector<std::vector<double>> skewed(4, std::vector<double>(16, 0.7));
  for (std::size_t c = 0; c < 16; ++c) {
    skewed[1][c] = 0.2;
    skewed[3][c] = 0.2;
    skewed[0][c] = 1.0;
    skewed[2][c] = 1.0;
  }
  const auto s_bal = model.solve(model.network().build_loads_per_core(
      cpm(), balanced));
  const auto s_skew = model.solve(model.network().build_loads_per_core(
      cpm(), skewed));
  EXPECT_LT(s_bal.max_node_deviation_fraction,
            s_skew.max_node_deviation_fraction);
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_same_bits(const PdnSolution& fresh, const PdnSolution& cold) {
  ASSERT_TRUE(fresh.solve_ok);
  ASSERT_TRUE(cold.solve_ok);
  EXPECT_EQ(bits(fresh.node_voltages), bits(cold.node_voltages));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.max_node_deviation_fraction),
            std::bit_cast<std::uint64_t>(cold.max_node_deviation_fraction));
  EXPECT_EQ(bits(fresh.converter_currents), bits(cold.converter_currents));
  EXPECT_EQ(bits(fresh.tsv_currents), bits(cold.tsv_currents));
  EXPECT_EQ(bits(fresh.c4_pad_currents), bits(cold.c4_pad_currents));
  EXPECT_EQ(fresh.report.iterations, cold.report.iterations);
}

// solve_cold on a model that already solved other loads (and kept their
// assembly, bind and warm-start vector) must give a fresh model's bits:
// the contract that lets one model serve a whole Fig. 6 column.
TEST(PdnSolverTest, ColdSolveMatchesFreshModelBitwise) {
  const auto check = [](const StackupConfig& cfg, const FaultSet& faults) {
    SCOPED_TRACE(std::string(cfg.is_voltage_stacked() ? "stacked" : "regular") +
                 (faults.empty() ? "" : " + faults"));
    const auto loads = [&](const PdnModel& m, double imbalance) {
      return m.network().build_loads(
          cpm(), power::interleaved_layer_activities(cfg.layer_count,
                                                     imbalance));
    };
    PdnModel fresh_model(cfg, paper_fp());
    faults.apply_to(fresh_model.network_mutable());
    const PdnSolution fresh = fresh_model.solve(loads(fresh_model, 0.7));

    PdnModel reused(cfg, paper_fp());
    ASSERT_TRUE(reused.solve(loads(reused, 0.2)).solve_ok);
    faults.apply_to(reused.network_mutable());  // epoch bump when nonempty
    expect_same_bits(fresh, reused.solve_cold(loads(reused, 0.7)));
    // A second cold solve of other loads, then the first again.
    ASSERT_TRUE(reused.solve_cold(loads(reused, 0.4)).solve_ok);
    expect_same_bits(fresh, reused.solve_cold(loads(reused, 0.7)));
  };

  check(small_regular(4), FaultSet());
  check(small_stacked(4), FaultSet());

  auto closed_loop = small_stacked(4);
  closed_loop.converter.control = sc::ControlPolicy::ClosedLoop;
  check(closed_loop, FaultSet());  // re-assembles inside every solve

  const PdnModel probe(small_stacked(4), paper_fp());
  std::size_t tsv = 0;
  while (probe.network().conductors()[tsv].kind !=
         ConductorKind::RecyclingTsv) {
    ++tsv;
  }
  FaultSet faults;
  faults.open_conductor(tsv, 1).converter_stuck_off(0);
  check(small_stacked(4), faults);

  // N cold solves of one open-loop network assemble and bind once.
  const auto binds = [] {
    return telemetry::snapshot().counter_value("la.solver.binds");
  };
  const double before = binds();
  const PdnModel model(small_stacked(4), paper_fp());
  for (const double imbalance : {0.0, 0.3, 0.6, 0.9}) {
    ASSERT_TRUE(model
                    .solve_cold(model.network().build_loads(
                        cpm(), power::interleaved_layer_activities(4,
                                                                   imbalance)))
                    .solve_ok);
  }
#if VSTACK_TELEMETRY_ENABLED
  EXPECT_EQ(binds() - before, 1.0);
#else
  EXPECT_EQ(binds() - before, 0.0);
#endif
}

// The batch solve_cold over several load sets must give what solve_cold
// per set gives on a model with the same history -- every solution's bits,
// and the state a later warm solve() starts from -- open- and closed-loop.
TEST(PdnSolverTest, BatchColdSolveMatchesPerSetColdSolvesBitwise) {
  for (const std::size_t layers : {2u, 8u}) {
    for (const auto control :
         {sc::ControlPolicy::OpenLoop, sc::ControlPolicy::ClosedLoop}) {
      SCOPED_TRACE(std::to_string(layers) + " layers, " +
                   (control == sc::ControlPolicy::OpenLoop ? "open"
                                                           : "closed") +
                   " loop");
      auto cfg = small_stacked(layers);
      cfg.converter.control = control;
      const PdnModel per_set(cfg, paper_fp());
      const PdnModel batch(cfg, paper_fp());
      std::vector<std::vector<LoadInjection>> sets;
      for (const double imbalance : {0.0, 0.5, 0.5, 1.0, 0.25}) {
        sets.push_back(per_set.network().build_loads(
            cpm(), power::interleaved_layer_activities(layers, imbalance)));
      }
      // Both models first solve other loads, so neither starts fresh.
      ASSERT_TRUE(per_set.solve(sets[1]).solve_ok);
      ASSERT_TRUE(batch.solve(sets[1]).solve_ok);

      const auto dc_solves = [] {
        return telemetry::snapshot().counter_value("pdn.dc.solves");
      };
      const double before = dc_solves();
      const std::vector<PdnSolution> got = batch.solve_cold(sets);
#if VSTACK_TELEMETRY_ENABLED
      EXPECT_EQ(dc_solves() - before, static_cast<double>(sets.size()));
#endif
      ASSERT_EQ(got.size(), sets.size());
      for (std::size_t i = 0; i < sets.size(); ++i) {
        SCOPED_TRACE("set " + std::to_string(i));
        const PdnSolution want = per_set.solve_cold(sets[i]);
        expect_same_bits(want, got[i]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(want.report.residual_norm),
                  std::bit_cast<std::uint64_t>(got[i].report.residual_norm));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(want.max_ir_drop),
                  std::bit_cast<std::uint64_t>(got[i].max_ir_drop));
        EXPECT_EQ(want.converter_limit_ok, got[i].converter_limit_ok);
        ASSERT_EQ(want.layer_droop.size(), got[i].layer_droop.size());
        for (std::size_t l = 0; l < want.layer_droop.size(); ++l) {
          EXPECT_EQ(bits(want.layer_droop[l].values),
                    bits(got[i].layer_droop[l].values));
        }
      }
      // A warm solve after either path starts from the same iterate.
      expect_same_bits(per_set.solve(sets[3]), batch.solve(sets[3]));
    }
  }
}

// Parameterized sweep over layer counts: stacked supply current stays one
// layer's worth regardless of N (the scalability claim).
class StackScaling : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StackScaling, SupplyCurrentIndependentOfLayerCount) {
  PdnModel model(small_stacked(GetParam()), paper_fp());
  const auto sol = model.solve_activities(
      cpm(), std::vector<double>(GetParam(), 1.0));
  EXPECT_NEAR(sol.supply_current, 7.6, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Layers, StackScaling,
                         ::testing::Values(2, 3, 4, 6, 8));

}  // namespace
}  // namespace vstack::pdn
