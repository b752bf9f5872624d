#include "circuit/sc_testbench.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vstack::circuit {
namespace {

ScSimulationOptions fast_options() {
  ScSimulationOptions o;
  o.settle_periods = 40;
  o.measure_periods = 10;
  o.steps_per_period = 32;
  return o;
}

TEST(ScTestbenchTest, CircuitHasExpectedStructure) {
  ScTestbenchConfig cfg;
  const ScTestbenchCircuit tb = build_push_pull_sc(cfg);
  // 4 ways x 8 switches.
  EXPECT_EQ(tb.netlist.switches().size(), 32u);
  // Per way: 2 fly caps + 2 bottom-plate caps, plus the output decap.
  EXPECT_EQ(tb.netlist.capacitors().size(), 4u * 4u + 1u);
  EXPECT_EQ(tb.netlist.voltage_sources().size(), 1u);
  EXPECT_EQ(tb.netlist.current_sources().size(), 1u);
}

TEST(ScTestbenchTest, OutputNearMidpointAtLightLoad) {
  ScTestbenchConfig cfg;
  cfg.load_current = 5e-3;
  const ScMeasurement m = simulate_push_pull_sc(cfg, fast_options());
  EXPECT_NEAR(m.average_output_voltage, 1.0, 0.03);
  EXPECT_GT(m.voltage_drop, 0.0);
}

TEST(ScTestbenchTest, VoltageDropGrowsWithLoad) {
  ScTestbenchConfig cfg;
  cfg.load_current = 20e-3;
  const ScMeasurement light = simulate_push_pull_sc(cfg, fast_options());
  cfg.load_current = 80e-3;
  const ScMeasurement heavy = simulate_push_pull_sc(cfg, fast_options());
  EXPECT_GT(heavy.voltage_drop, light.voltage_drop);
  // Roughly linear in load: effective series resistance within a factor of
  // the paper's 0.6 Ohm design value.
  const double r_eff = heavy.voltage_drop / 80e-3;
  EXPECT_GT(r_eff, 0.3);
  EXPECT_LT(r_eff, 1.2);
}

TEST(ScTestbenchTest, EfficiencyRisesWithLoadOpenLoop) {
  // Open loop: fixed parasitic loss dominates at light load (paper Fig. 3b).
  ScTestbenchConfig cfg;
  cfg.load_current = 10e-3;
  const ScMeasurement light = simulate_push_pull_sc(cfg, fast_options());
  cfg.load_current = 90e-3;
  const ScMeasurement heavy = simulate_push_pull_sc(cfg, fast_options());
  EXPECT_GT(heavy.efficiency, light.efficiency);
  EXPECT_GT(light.efficiency, 0.30);
  EXPECT_LT(light.efficiency, 0.75);
  EXPECT_GT(heavy.efficiency, 0.75);
  EXPECT_LT(heavy.efficiency, 0.95);
}

TEST(ScTestbenchTest, EnergyBalanceHolds) {
  ScTestbenchConfig cfg;
  cfg.load_current = 50e-3;
  const ScMeasurement m = simulate_push_pull_sc(cfg, fast_options());
  EXPECT_GT(m.input_power, m.output_power);
  EXPECT_GT(m.output_power, 0.0);
  EXPECT_LT(m.efficiency, 1.0);
}

TEST(ScTestbenchTest, InterleavingReducesRipple) {
  ScTestbenchConfig cfg;
  cfg.load_current = 50e-3;
  cfg.interleave_ways = 1;
  const ScMeasurement single = simulate_push_pull_sc(cfg, fast_options());
  cfg.interleave_ways = 4;
  const ScMeasurement four = simulate_push_pull_sc(cfg, fast_options());
  EXPECT_LT(four.output_ripple, single.output_ripple);
}

TEST(ScTestbenchTest, AdaptiveModeAcceptsAnyStepCount) {
  // The historical divide-the-period footgun is gone in adaptive mode: the
  // controller snaps step boundaries onto switch edges instead.
  ScTestbenchConfig cfg;
  cfg.load_current = 50e-3;
  ScSimulationOptions opts = fast_options();
  opts.steps_per_period = 30;  // misaligned on a fixed grid; fine here
  const ScMeasurement m = simulate_push_pull_sc(cfg, opts);
  ASSERT_TRUE(m.ok()) << m.transient.summary();
  EXPECT_GT(m.average_output_voltage, 0.8);
  EXPECT_LT(m.average_output_voltage, 1.1);
}

TEST(ScTestbenchTest, RejectsNonZeroBottomRail) {
  ScTestbenchConfig cfg;
  cfg.v_bottom = 0.5;
  EXPECT_THROW(build_push_pull_sc(cfg), Error);
}

}  // namespace
}  // namespace vstack::circuit
