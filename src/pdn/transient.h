// Transient (RLC) analysis of the 3D PDN -- an extension beyond the paper's
// DC (IR-drop) study, restoring the dynamic part of the VoltSpot model the
// paper builds on.
//
// On top of the resistive network, this adds per-cell on-chip decoupling
// capacitance and a package inductance per supply net, then integrates a
// load step with trapezoidal companions (backward-Euler startup and
// post-event stabilization in adaptive mode).  Both companion models are
// pure conductances plus history currents, so the system stays SPD; small
// systems are factorized once per distinct (dt, scheme) with the
// RCM-reordered skyline Cholesky, larger ones use warm-started CG.
//
// Robustness (shared sim::StepController core, same discipline as
// circuit/transient.h): optional LTE-controlled adaptive stepping that hits
// the load-step instant exactly, NaN/overflow guards on every candidate
// solution, linear solves that fall back to la::Solver (CG, then dense LU)
// instead of throwing, and hard step / wall-clock budgets.  Callers
// check PdnTransientResult::report instead of catching exceptions.
//
// Adaptive mode runs on the one PDN step loop, pdn::detail::run_adaptive
// (pdn/transient_core.h), which simulate_ride_through runs on too; this
// route adds only its load step, its fault events and its peak-tracking
// sample record.  Fault events in both modes go through one applier.
//
// The fixed grid stays separate on purpose.  Its events fire at the first
// grid point t >= their time, it integrates trapezoidally throughout with
// no restarts, and its times are (k + 1) * h (sim::FixedGrid).  It is the
// bit-compatible path behind pdn::optimize_layer_decap and the transient
// droop and decap allocation ablations (EXPERIMENTS ablations 5 and 14),
// and the reference the adaptive-vs-fixed tests compare against.
//
// The headline result it enables: voltage stacking draws ~N times less
// off-chip current, so the L*di/dt droop of a full-power step is far
// smaller than in the regular PDN with the same package.
#pragma once

#include <string>
#include <vector>

#include "pdn/fault.h"
#include "pdn/solver.h"
#include "sim/step_control.h"

namespace vstack::pdn {

/// A fault (or load surge) scheduled to strike DURING a transient run.
///
/// Timing semantics: in adaptive mode the step controller snaps a step
/// boundary exactly onto `time` and the event is applied at that boundary
/// (the step starting at `time` already integrates the post-event topology
/// and loads).  In fixed mode the event is applied at the first grid point
/// t >= time, mirroring the legacy load-step rule, so runs without events
/// reproduce historical waveforms bit-for-bit.  Events at time <= 0 are
/// applied after the DC initial condition is taken but before the first
/// step: the run starts from the HEALTHY operating point and the waveform
/// shows the response from t = 0+.
///
/// Applying the faults bumps the working network's topology epoch, which
/// invalidates every cached factorization/preconditioner; adaptive mode also
/// restarts integration (backward-Euler startup, reduced dt) since the
/// pre-fault history is invalid across the discontinuity.
struct TimedFaultEvent {
  double time = 0.0;  // [s] when the event strikes
  /// Topology perturbations (TSV/C4 opens or degradations, converter
  /// stuck-off, leakage shorts); may be empty for a pure load surge.
  FaultSet faults;
  /// Optional load surge: when non-empty (size = layer count), these
  /// per-layer activities REPLACE the loads in force from `time` onward.
  std::vector<double> activities;
  /// Label recorded in the report's event trail (default "fault event").
  std::string label;
};

struct PdnTransientOptions {
  /// On-chip decoupling capacitance per die area, per layer [F/m^2].
  /// ~5 nF/mm^2 is typical for a logic die's intrinsic + explicit decap.
  double decap_density = 0.005;

  /// Optional per-layer override of decap_density (size = layer count);
  /// empty means uniform.  Used by the decap allocation optimizer.
  std::vector<double> layer_decap_density;

  /// Package + board loop inductance per supply net [H].
  double package_inductance = 50e-12;

  /// Fixed mode: the uniform step.  Adaptive mode: the LARGEST step the
  /// controller may take.
  double time_step = 0.5e-9;  // [s]
  double duration = 200e-9;   // [s] total simulated time
  double step_time = 20e-9;   // [s] when the load step fires

  /// Faults / load surges striking mid-run, applied to a private copy of the
  /// model's network (the caller's model is never mutated).  See
  /// TimedFaultEvent for the timing semantics.
  std::vector<TimedFaultEvent> fault_events;

  /// LTE-controlled adaptive stepping that snaps a step boundary exactly
  /// onto step_time and every fault-event instant.  Off by default (the
  /// fixed grid reproduces historical waveforms bit-for-bit); guards,
  /// budgets and reporting apply either way.
  bool adaptive = false;

  /// Tolerances and budgets for the shared controller.
  sim::StepControlOptions control;

  /// CG settings of the step solves above detail::kDirectSolverNodeLimit
  /// unknowns (and of the fallback when a direct solve goes non-finite).
  la::IterativeOptions iterative{.max_iterations = 20000,
                                 .relative_tolerance = 1e-8};

  void validate() const;
};

struct PdnTransientResult {
  std::vector<double> time;          // [s], one entry per accepted step
  std::vector<double> worst_noise;   // max node deviation fraction per step
  std::vector<double> supply_current;  // off-chip current [A] per step

  double initial_noise = 0.0;  // DC value before the step
  double peak_noise = 0.0;     // worst transient excursion
  double peak_time = 0.0;      // when it occurs [s]
  double final_noise = 0.0;    // settled value at the end of the run

  /// Structured outcome: step statistics, recovery/fallback events, and a
  /// status labeling truncated results.  Check ok() before trusting the
  /// waveform to span the full duration; waveforms never contain NaN.
  sim::TransientReport report;
  bool ok() const { return report.ok(); }
};

/// Simulate a load step from `activities_before` to `activities_after`
/// (per-layer activity factors) on the given PDN.  Throws only on
/// precondition violations; numerical trouble truncates the waveform and is
/// described in the returned report.
PdnTransientResult simulate_load_step(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities_before,
    const std::vector<double>& activities_after,
    const PdnTransientOptions& options = {});

}  // namespace vstack::pdn
