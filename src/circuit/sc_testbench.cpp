#include "circuit/sc_testbench.h"

#include <string>

#include "common/error.h"

namespace vstack::circuit {

ScTestbenchCircuit build_push_pull_sc(const ScTestbenchConfig& config) {
  VS_REQUIRE(config.interleave_ways >= 1, "need at least one interleave way");
  VS_REQUIRE(config.total_fly_capacitance > 0.0,
             "fly capacitance must be positive");
  VS_REQUIRE(config.switching_frequency > 0.0,
             "switching frequency must be positive");
  VS_REQUIRE(config.v_top > config.v_bottom,
             "top rail must be above bottom rail");
  VS_REQUIRE(config.v_bottom == 0.0,
             "testbench references the bottom rail as ground");

  ScTestbenchCircuit tb;
  Netlist& net = tb.netlist;

  tb.top_node = net.create_node("vtop");
  tb.output_node = net.create_node("vout");
  net.add_voltage_source(tb.top_node, kGround, config.v_top);

  const double v_mid = 0.5 * (config.v_top + config.v_bottom);
  net.add_capacitor(tb.output_node, kGround, config.output_decap, v_mid);

  const int ways = config.interleave_ways;
  // Two fly caps per way (push-pull); each alternates between the upper
  // (top..out) and lower (out..bottom) position.
  const double c_fly = config.total_fly_capacitance / (2.0 * ways);
  const double c_bp = config.bottom_plate_ratio * c_fly;

  for (int w = 0; w < ways; ++w) {
    const std::string suffix = "_w" + std::to_string(w);
    const NodeId c1t = net.create_node("c1t" + suffix);
    const NodeId c1b = net.create_node("c1b" + suffix);
    const NodeId c2t = net.create_node("c2t" + suffix);
    const NodeId c2b = net.create_node("c2b" + suffix);

    // Steady-state bias of each fly cap is ~Vdd = v_mid - v_bottom.
    net.add_capacitor(c1t, c1b, c_fly, v_mid - config.v_bottom);
    net.add_capacitor(c2t, c2b, c_fly, v_mid - config.v_bottom);
    // Bottom-plate parasitics to the local substrate (testbench ground).
    net.add_capacitor(c1b, kGround, c_bp, 0.0);
    net.add_capacitor(c2b, kGround, c_bp, 0.0);

    // Interleaved ways are staggered uniformly across a half period; the
    // complementary phase of each way is a half period later.
    const double offset_a = static_cast<double>(w) / (2.0 * ways);
    double offset_b = offset_a + 0.5;
    if (offset_b >= 1.0) offset_b -= 1.0;
    const ClockPhase phase_a{offset_a, config.duty};
    const ClockPhase phase_b{offset_b, config.duty};

    const double ron = config.switch_on_resistance;
    const double roff = config.switch_off_resistance;

    // Phase A: C1 upper (top..out), C2 lower (out..bottom).
    net.add_switch(c1t, tb.top_node, ron, roff, phase_a);
    net.add_switch(c1b, tb.output_node, ron, roff, phase_a);
    net.add_switch(c2t, tb.output_node, ron, roff, phase_a);
    net.add_switch(c2b, kGround, ron, roff, phase_a);
    // Phase B: positions interchange.
    net.add_switch(c1t, tb.output_node, ron, roff, phase_b);
    net.add_switch(c1b, kGround, ron, roff, phase_b);
    net.add_switch(c2t, tb.top_node, ron, roff, phase_b);
    net.add_switch(c2b, tb.output_node, ron, roff, phase_b);
  }

  tb.load_source_index =
      net.add_current_source(tb.output_node, kGround, config.load_current);
  return tb;
}

ScMeasurement simulate_push_pull_sc(const ScTestbenchConfig& config,
                                    const ScSimulationOptions& options) {
  VS_REQUIRE(options.steps_per_period > 0,
             "steps_per_period must be positive");
  VS_REQUIRE(options.settle_periods > 0 && options.measure_periods > 0,
             "period counts must be positive");

  ScTestbenchCircuit tb = build_push_pull_sc(config);

  const double period = 1.0 / config.switching_frequency;
  TransientSimulator sim(tb.netlist, period);

  TransientOptions topts;
  topts.mode = SteppingMode::Adaptive;
  topts.time_step = period / options.steps_per_period;
  topts.stop_time =
      period * (options.settle_periods + options.measure_periods);

  const TransientResult result = sim.run(topts);
  const double t_measure = period * options.settle_periods;

  ScMeasurement m;
  m.transient = result.report;
  if (!result.ok()) return m;  // truncated run: report carries the reason
  m.average_output_voltage =
      result.average_node_voltage(tb.output_node, t_measure);
  m.output_ripple = result.max_node_voltage(tb.output_node, t_measure) -
                    result.min_node_voltage(tb.output_node, t_measure);

  const double i_top = result.average_vsource_current(0, t_measure);
  // Each of the 8 switches per way draws Cg*Vg^2 from the driver supply once
  // per period.
  const double gate_power = 8.0 * config.interleave_ways *
                            config.gate_capacitance_per_switch *
                            config.gate_drive_voltage *
                            config.gate_drive_voltage *
                            config.switching_frequency;
  // Gate drivers are not part of the switch-level network (their supply is
  // the local rail); account for their CV^2f draw analytically, exactly as a
  // transistor-level simulation would see it on the driver supply.
  m.input_power = config.v_top * i_top + gate_power;
  m.output_power = m.average_output_voltage * config.load_current;
  m.efficiency = (m.input_power > 0.0) ? m.output_power / m.input_power : 0.0;
  m.voltage_drop =
      0.5 * (config.v_top + config.v_bottom) - m.average_output_voltage;
  return m;
}

}  // namespace vstack::circuit
