// Transient analysis with clocked switches: adaptive (default for the SC
// testbench) or legacy fixed-step integration.
//
// Capacitors use trapezoidal companion models, falling back to backward
// Euler for a couple of steps after every switching event to suppress the
// ringing trapezoidal integration exhibits across discontinuities.  Matrix
// factorizations are cached per (switch pattern, scheme, dt), so a periodic
// steady-state run factors each distinct clock phase a handful of times.
//
// Adaptive mode drives the shared sim::StepController: local-truncation-
// error controlled step selection with rejection/halving/exponential
// grow-back, and steps clamped so every clocked-switch edge is hit exactly
// -- the time step no longer needs to divide the clock period.  Fixed mode
// keeps the historical uniform grid (and now DIAGNOSES a step that does not
// divide the period instead of silently skewing switch timing).
//
// Robustness: numerical failures do not throw.  DC initialization runs
// through the gmin/source-stepping ladder (dc_solve_robust), singular step
// matrices are retried with a gmin shift, every candidate solution passes a
// NaN/overflow guard before being committed, and hard step / wall-clock
// budgets truncate runaway runs.  Callers check TransientResult::report
// (a sim::TransientReport) instead of catching exceptions; returned
// waveforms never contain NaN.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "sim/step_control.h"

namespace vstack::circuit {

enum class SteppingMode {
  Fixed,     // uniform grid at `time_step` (legacy behavior)
  Adaptive,  // LTE-controlled steps, switch edges hit exactly
};

struct TransientOptions {
  double stop_time = 0.0;  // seconds; must be > 0
  /// Fixed mode: the uniform step; must divide the clock period evenly when
  /// the netlist contains switches (checked -- a non-divisible step fails
  /// with a diagnostic instead of skewing switch timing).
  /// Adaptive mode: the LARGEST step the controller may take; 0 derives a
  /// default from the clock period (period / 64) or stop_time / 1000 for
  /// switchless netlists.
  double time_step = 0.0;
  bool start_from_dc = false;  // solve a DC point (phase at t=0) for initial
                               // capacitor voltages instead of using v0
  SteppingMode mode = SteppingMode::Fixed;
  /// Tolerances, budgets and guard thresholds for the shared controller.
  /// Budgets and guards apply in BOTH modes.
  sim::StepControlOptions control;
};

/// Recorded waveforms.  Index k corresponds to time[k]; spacing is uniform
/// in fixed mode and variable in adaptive mode (averages are time-weighted
/// so both modes measure identically).
class TransientResult {
 public:
  std::vector<double> time;
  std::vector<la::Vector> node_voltages;      // per step, size = node_count
  std::vector<la::Vector> vsource_currents;   // delivered current per source

  /// Structured outcome: step statistics, recovery events, and a status
  /// labeling truncated results.  Check ok() before trusting the waveforms
  /// to cover the full requested span.
  sim::TransientReport report;
  bool ok() const { return report.ok(); }

  /// Time-average of a node voltage over [from_time, end] (trapezoidal
  /// weights, exact for non-uniform adaptive sampling).
  double average_node_voltage(NodeId node, double from_time) const;

  /// Time-average of the current delivered by a voltage source.
  double average_vsource_current(std::size_t source, double from_time) const;

  /// Min / max of a node voltage over [from_time, end].
  double min_node_voltage(NodeId node, double from_time) const;
  double max_node_voltage(NodeId node, double from_time) const;
};

class TransientSimulator {
 public:
  /// `clock_period` scales every switch's ClockPhase description.
  TransientSimulator(const Netlist& netlist, double clock_period);

  /// Integrate to options.stop_time.  Throws only on precondition
  /// violations (bad options); numerical trouble is reported through
  /// TransientResult::report with the waveform truncated at the last good
  /// step.
  TransientResult run(const TransientOptions& options);

  /// Switch states at absolute time t (exposed for tests).
  std::vector<bool> switch_states(double t) const;

  /// Schedule of switch on/off edges (exposed for tests).
  sim::PeriodicEvents switch_edges() const;

 private:
  TransientResult run_fixed(const TransientOptions& options);
  TransientResult run_adaptive(const TransientOptions& options);

  const Netlist& netlist_;
  double clock_period_;
};

}  // namespace vstack::circuit
