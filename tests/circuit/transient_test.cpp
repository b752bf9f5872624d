#include "circuit/transient.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/spice_parser.h"
#include "common/error.h"

namespace vstack::circuit {
namespace {

TEST(TransientTest, RcChargeMatchesAnalytic) {
  // 1V step into R=1k, C=1uF: v(t) = 1 - exp(-t/RC), tau = 1 ms.
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId out = net.create_node("out");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_resistor(vin, out, 1000.0);
  net.add_capacitor(out, kGround, 1e-6, 0.0);

  TransientSimulator sim(net, /*clock_period=*/1.0);  // no switches
  TransientOptions opts;
  opts.stop_time = 5e-3;
  opts.time_step = 1e-6;
  const TransientResult r = sim.run(opts);

  for (std::size_t k = 100; k < r.time.size(); k += 500) {
    const double expected = 1.0 - std::exp(-r.time[k] / 1e-3);
    EXPECT_NEAR(r.node_voltages[k][out], expected, 2e-4)
        << "at t=" << r.time[k];
  }
}

TEST(TransientTest, CapacitorInitialVoltageRespected) {
  Netlist net;
  const NodeId out = net.create_node("out");
  net.add_resistor(out, kGround, 1000.0);
  net.add_capacitor(out, kGround, 1e-6, 2.0);  // starts at 2V, discharges

  TransientSimulator sim(net, 1.0);
  TransientOptions opts;
  opts.stop_time = 2e-3;
  opts.time_step = 1e-6;
  const TransientResult r = sim.run(opts);
  // After 1 tau (1 ms) the voltage should be ~2/e.
  const std::size_t k_tau = 1000;
  EXPECT_NEAR(r.node_voltages[k_tau][out], 2.0 / M_E, 5e-3);
}

TEST(TransientTest, StartFromDcEliminatesStartupTransient) {
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId out = net.create_node("out");
  net.add_voltage_source(vin, kGround, 3.0);
  net.add_resistor(vin, out, 100.0);
  net.add_resistor(out, kGround, 200.0);
  net.add_capacitor(out, kGround, 1e-6, 0.0);

  TransientSimulator sim(net, 1.0);
  TransientOptions opts;
  opts.stop_time = 1e-4;
  opts.time_step = 1e-7;
  opts.start_from_dc = true;
  const TransientResult r = sim.run(opts);
  // DC point: divider at 2V; with start_from_dc the node never moves.
  EXPECT_NEAR(r.node_voltages.front()[out], 2.0, 1e-9);
  EXPECT_NEAR(r.node_voltages.back()[out], 2.0, 1e-9);
}

TEST(TransientTest, SwitchStatesFollowClock) {
  Netlist net;
  const NodeId a = net.create_node("a");
  net.add_resistor(a, kGround, 1.0);
  net.add_switch(a, kGround, 1.0, 1e9, ClockPhase{0.0, 0.5});   // phase A
  net.add_switch(a, kGround, 1.0, 1e9, ClockPhase{0.5, 0.5});   // phase B
  TransientSimulator sim(net, 1e-6);

  const auto early = sim.switch_states(0.1e-6);
  EXPECT_TRUE(early[0]);
  EXPECT_FALSE(early[1]);
  const auto late = sim.switch_states(0.7e-6);
  EXPECT_FALSE(late[0]);
  EXPECT_TRUE(late[1]);
  // Periodicity.
  const auto wrapped = sim.switch_states(2.1e-6);
  EXPECT_TRUE(wrapped[0]);
  EXPECT_FALSE(wrapped[1]);
}

TEST(TransientTest, SwitchedDividerAlternates) {
  // Node driven through switch S1 to 1V during phase A and grounded through
  // S2 during phase B; the recorded waveform must alternate.
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId out = net.create_node("out");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_switch(vin, out, 10.0, 1e9, ClockPhase{0.0, 0.5});
  net.add_switch(out, kGround, 10.0, 1e9, ClockPhase{0.5, 0.5});
  net.add_resistor(out, kGround, 1e6);  // keep the node defined when floating

  TransientSimulator sim(net, 1e-6);
  TransientOptions opts;
  opts.stop_time = 4e-6;
  opts.time_step = 1e-8;
  const TransientResult r = sim.run(opts);

  // Sample within each half of the third period.
  const auto at = [&](double t) {
    const auto k = static_cast<std::size_t>(t / opts.time_step) - 1;
    return r.node_voltages[k][out];
  };
  EXPECT_NEAR(at(2.25e-6), 1.0, 1e-4);  // phase A: pulled to vin
  EXPECT_NEAR(at(2.75e-6), 0.0, 1e-4);  // phase B: grounded
}

TEST(TransientTest, EnergyConservationInRcDischarge) {
  // Energy dissipated in R equals the energy initially stored in C.
  Netlist net;
  const NodeId out = net.create_node("out");
  const double c_val = 1e-6, r_val = 500.0, v0 = 1.0;
  net.add_resistor(out, kGround, r_val);
  net.add_capacitor(out, kGround, c_val, v0);

  TransientSimulator sim(net, 1.0);
  TransientOptions opts;
  opts.stop_time = 10e-3;  // 20 tau
  opts.time_step = 1e-6;
  const TransientResult r = sim.run(opts);

  double dissipated = 0.0;
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    const double v = r.node_voltages[k][out];
    dissipated += v * v / r_val * opts.time_step;
  }
  EXPECT_NEAR(dissipated, 0.5 * c_val * v0 * v0, 0.01 * 0.5 * c_val);
}

TEST(TransientTest, RejectsBadOptions) {
  Netlist net;
  net.create_node("a");
  TransientSimulator sim(net, 1e-6);
  TransientOptions opts;
  EXPECT_THROW(sim.run(opts), Error);  // zero stop time
  opts.stop_time = 1e-3;
  EXPECT_THROW(sim.run(opts), Error);  // zero step
  opts.time_step = 2e-3;
  EXPECT_THROW(sim.run(opts), Error);  // step > stop
}

TEST(TransientTest, RejectsNonPositiveClockPeriod) {
  Netlist net;
  EXPECT_THROW(TransientSimulator(net, 0.0), Error);
}

TEST(TransientTest, FixedModeDiagnosesNonDivisibleStep) {
  // The historical footgun: a fixed step that does not divide the clock
  // period silently skewed switch timing.  It must now fail loudly and
  // point at adaptive mode.
  Netlist net;
  const NodeId a = net.create_node("a");
  net.add_resistor(a, kGround, 1.0);
  net.add_switch(a, kGround, 1.0, 1e9, ClockPhase{0.0, 0.5});
  TransientSimulator sim(net, 1e-6);
  TransientOptions opts;
  opts.stop_time = 4e-6;
  opts.time_step = 0.3e-6;  // period / step = 3.33...
  opts.mode = SteppingMode::Fixed;
  try {
    sim.run(opts);
    FAIL() << "expected a divisibility diagnostic";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("divide"), std::string::npos) << what;
    EXPECT_NE(what.find("Adaptive"), std::string::npos) << what;
  }
}

TEST(TransientTest, AdaptiveRcMatchesAnalytic) {
  // Same RC charge as the fixed-mode test, integrated adaptively: every
  // recorded sample must track the analytic exponential.
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId out = net.create_node("out");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_resistor(vin, out, 1000.0);
  net.add_capacitor(out, kGround, 1e-6, 0.0);

  TransientSimulator sim(net, 1.0);
  TransientOptions opts;
  opts.stop_time = 5e-3;
  opts.time_step = 1e-4;  // dt_max: 100x the fixed-mode grid
  opts.mode = SteppingMode::Adaptive;
  const TransientResult r = sim.run(opts);

  ASSERT_TRUE(r.ok()) << r.report.summary();
  for (std::size_t k = 1; k < r.time.size(); ++k) {
    const double expected = 1.0 - std::exp(-r.time[k] / 1e-3);
    ASSERT_NEAR(r.node_voltages[k][out], expected, 2e-3)
        << "at t=" << r.time[k];
  }
  // Final sample lands exactly on stop_time.
  EXPECT_DOUBLE_EQ(r.time.back(), opts.stop_time);
}

TEST(TransientTest, AdaptiveSnapsExactlyOntoSwitchEdges) {
  // dt_max = 0.3 * period does NOT divide the period; adaptive mode must
  // clamp steps so every switch edge is a recorded time point anyway.
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId out = net.create_node("out");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_switch(vin, out, 10.0, 1e9, ClockPhase{0.0, 0.5});
  net.add_switch(out, kGround, 10.0, 1e9, ClockPhase{0.5, 0.5});
  net.add_resistor(out, kGround, 1e6);
  net.add_capacitor(out, kGround, 1e-12, 0.0);

  const double period = 1e-6;
  TransientSimulator sim(net, period);
  TransientOptions opts;
  opts.stop_time = 3e-6;
  opts.time_step = 0.3 * period;
  opts.mode = SteppingMode::Adaptive;
  const TransientResult r = sim.run(opts);
  ASSERT_TRUE(r.ok()) << r.report.summary();

  // Edges at every half period in (0, stop].
  for (int k = 1; k <= 6; ++k) {
    const double edge = 0.5e-6 * k;
    double closest = 1e9;
    for (const double t : r.time) {
      closest = std::min(closest, std::abs(t - edge));
    }
    EXPECT_LT(closest, 1e-13) << "missed switch edge at " << edge;
  }
}

TEST(TransientTest, StiffCircuitAdaptiveConvergesWithoutNaN) {
  // Time constants six decades apart (1 ns vs 1 ms).  A fixed grid fine
  // enough for the fast pole would need ~5M steps here; adaptive mode must
  // resolve the fast initial transient, then stride across the slow tail,
  // with no thrown solver exceptions and no NaN anywhere in the waveform.
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId a = net.create_node("a");
  const NodeId b = net.create_node("b");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_resistor(vin, a, 1000.0);
  net.add_capacitor(a, kGround, 1e-12, 0.0);  // tau_fast = 1 ns
  net.add_resistor(a, b, 1e6);
  net.add_capacitor(b, kGround, 1e-9, 0.0);   // tau_slow ~ 1 ms

  TransientSimulator sim(net, 1.0);
  TransientOptions opts;
  opts.stop_time = 5e-3;
  opts.time_step = 5e-5;  // dt_max
  opts.mode = SteppingMode::Adaptive;
  TransientResult r;
  ASSERT_NO_THROW(r = sim.run(opts));
  ASSERT_TRUE(r.ok()) << r.report.summary();

  for (std::size_t k = 0; k < r.time.size(); ++k) {
    ASSERT_TRUE(std::isfinite(r.node_voltages[k][a]));
    ASSERT_TRUE(std::isfinite(r.node_voltages[k][b]));
  }
  // Slow node settles onto the analytic single-pole response.
  const double tau_slow = 1e6 * 1e-9;
  const double expected = 1.0 - std::exp(-opts.stop_time / tau_slow);
  EXPECT_NEAR(r.node_voltages.back()[b], expected, 5e-3);
  // And it did so in far fewer steps than the fast pole's fixed grid.
  EXPECT_LT(r.report.accepted_steps, 50000u);
}

TEST(TransientTest, DcSingularNetlistRecoversViaGminLadder) {
  // Node b floats at DC (capacitor path only): the plain DC matrix is
  // singular.  start_from_dc must recover through the gmin ladder instead
  // of throwing, and the transient must stay finite.
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId a = net.create_node("a");
  const NodeId b = net.create_node("b");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_resistor(vin, a, 1000.0);
  net.add_capacitor(a, b, 1e-6, 0.0);
  net.add_capacitor(b, kGround, 1e-6, 0.0);

  TransientSimulator sim(net, 1.0);
  TransientOptions opts;
  opts.stop_time = 1e-4;
  opts.time_step = 1e-6;
  opts.start_from_dc = true;
  opts.mode = SteppingMode::Adaptive;
  TransientResult r;
  ASSERT_NO_THROW(r = sim.run(opts));
  ASSERT_TRUE(r.ok()) << r.report.summary();
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    ASSERT_TRUE(std::isfinite(r.node_voltages[k][b]));
  }
}

TEST(TransientTest, StepBudgetTruncatesButLabelsTheResult) {
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId out = net.create_node("out");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_resistor(vin, out, 1000.0);
  net.add_capacitor(out, kGround, 1e-6, 0.0);

  TransientSimulator sim(net, 1.0);
  TransientOptions opts;
  opts.stop_time = 5e-3;
  opts.time_step = 1e-6;
  opts.mode = SteppingMode::Adaptive;
  opts.control.max_steps = 25;
  TransientResult r;
  ASSERT_NO_THROW(r = sim.run(opts));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.report.status, sim::TransientStatus::BudgetExhausted);
  EXPECT_FALSE(r.report.diagnostic.empty());
  // The truncated prefix is still usable: nonempty, finite, labeled.
  ASSERT_FALSE(r.time.empty());
  EXPECT_LT(r.report.end_time, opts.stop_time);
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    ASSERT_TRUE(std::isfinite(r.node_voltages[k][out]));
  }
}

TEST(TransientTest, FixedGridBeyondTheStepBudgetTruncatesAtTheBudget) {
  // 10^15 fixed steps: the grid stops at the budget instead of reserving
  // the whole window up front.
  auto c = parse_spice("V1 a 0 1\nR1 a b 1k\nC1 b 0 1n\n.tran 1e-18 1e-3\n");
  ASSERT_EQ(c.tran.mode, SteppingMode::Fixed);
  c.tran.control.max_steps = 1000;
  TransientSimulator sim(c.netlist, c.clock_period);
  const TransientResult r = sim.run(c.tran);
  EXPECT_EQ(r.report.status, sim::TransientStatus::BudgetExhausted);
  EXPECT_EQ(r.time.size(), 1000u);
  EXPECT_EQ(r.node_voltages.size(), 1000u);
  EXPECT_EQ(r.report.accepted_steps, 1000u);
  EXPECT_DOUBLE_EQ(r.report.end_time, 1000 * 1e-18);
}

TEST(TransientTest, AdaptiveDerivesDefaultMaxStepFromClock) {
  // time_step = 0 in adaptive mode derives dt_max from the clock period.
  Netlist net;
  const NodeId vin = net.create_node("vin");
  const NodeId out = net.create_node("out");
  net.add_voltage_source(vin, kGround, 1.0);
  net.add_switch(vin, out, 10.0, 1e9, ClockPhase{0.0, 0.5});
  net.add_resistor(out, kGround, 1e3);
  net.add_capacitor(out, kGround, 1e-12, 0.0);

  TransientSimulator sim(net, 1e-6);
  TransientOptions opts;
  opts.stop_time = 2e-6;
  opts.time_step = 0.0;
  opts.mode = SteppingMode::Adaptive;
  const TransientResult r = sim.run(opts);
  EXPECT_TRUE(r.ok()) << r.report.summary();
}

}  // namespace
}  // namespace vstack::circuit
