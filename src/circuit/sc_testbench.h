// Switch-level testbench for the 2:1 push-pull switched-capacitor converter
// of the paper's Fig. 1.
//
// This is the repository's substitute for the authors' 28 nm Spectre
// simulation: it builds the full interleaved switch/fly-capacitor network,
// integrates it to periodic steady state, and measures efficiency and output
// voltage drop.  The compact model in src/sc is validated against these
// measurements, reproducing the paper's Fig. 3.
#pragma once

#include "circuit/netlist.h"
#include "circuit/transient.h"

namespace vstack::circuit {

struct ScTestbenchConfig {
  double v_top = 2.0;     // stack-top supply [V]; 2x Vdd for a 2-layer stack
  double v_bottom = 0.0;  // stack-bottom rail [V] (testbench ground)

  double total_fly_capacitance = 8e-9;  // [F] across all interleaved ways
  double switching_frequency = 50e6;    // [Hz]
  int interleave_ways = 4;
  double duty = 0.48;  // per-phase duty; < 0.5 leaves a non-overlap gap

  double switch_on_resistance = 0.45;   // [Ohm] per switch
  double switch_off_resistance = 1e9;   // [Ohm]
  double bottom_plate_ratio = 0.015;    // parasitic / fly capacitance
  double gate_capacitance_per_switch = 2e-12;  // [F] for gate-drive loss
  double gate_drive_voltage = 1.0;             // [V]

  double output_decap = 1e-9;  // [F] local decoupling at the output rail
  double load_current = 50e-3;  // [A] drawn from the output rail
};

struct ScMeasurement {
  double average_output_voltage = 0.0;  // [V]
  double output_ripple = 0.0;           // max - min over the window [V]
  double input_power = 0.0;   // from the top source + gate drive [W]
  double output_power = 0.0;  // delivered to the load sink [W]
  double efficiency = 0.0;    // output_power / input_power
  double voltage_drop = 0.0;  // ideal midpoint minus average output [V]

  /// Transient-engine outcome for the underlying run; measurements above
  /// are only trustworthy when ok() holds.
  sim::TransientReport transient;
  bool ok() const { return transient.ok(); }
};

struct ScSimulationOptions {
  int settle_periods = 60;   // discarded transient
  int measure_periods = 20;  // averaging window
  /// Upper bound on steps per clock period: the run steps adaptively
  /// (LTE-controlled, snapped onto every switch edge) with dt_max =
  /// period / steps_per_period.
  int steps_per_period = 64;
};

/// Build the interleaved push-pull converter netlist.  Returns the netlist
/// and the ids of its external nodes / elements through out-parameters.
struct ScTestbenchCircuit {
  Netlist netlist;
  NodeId top_node = 0;
  NodeId output_node = 0;
  std::size_t load_source_index = 0;  // current-source index for the load
};

ScTestbenchCircuit build_push_pull_sc(const ScTestbenchConfig& config);

/// Simulate to periodic steady state and measure converter metrics.
ScMeasurement simulate_push_pull_sc(const ScTestbenchConfig& config,
                                    const ScSimulationOptions& options = {});

}  // namespace vstack::circuit
