// Live fault ride-through: a transient PDN run with mid-run fault events
// and the sc::StackSupervisor in the loop.
//
// The engine integrates the stacked (or regular) PDN on the same loop as
// pdn::simulate_load_step's adaptive mode (pdn::detail::run_adaptive) --
// same companion models, same epoch-keyed step solver, same guard/budget
// discipline, same fault-event applier -- and adds a sensing plane at its
// step boundaries: every supervisor sense_interval the per-layer worst
// droop is sampled from the live solution and fed to the supervisor, whose
// abstract actions are translated into network mutations:
//
//   PhaseRebalance    -> surviving converter phases at the afflicted rails
//                        are strengthened (R_series lowered by up to the
//                        lost-phase ratio, capped by max_rebalance_boost)
//   FrequencyRetarget -> R_series rescaled by 1/boost, the SSL-dominated
//                        limit of the r_series ratio at the boosted
//                        switching frequency
//   BypassEngage      -> a bypass linear regulator (add_converter_clone
//                        with bypass_resistance) is switched in at the
//                        faulted converter's site
//   LayerShutdown     -> the layer's load activity is zeroed and the layer
//                        is excluded from further droop sensing
//
// Every mutation bumps the network's topology epoch (invalidating the
// factorization cache) and restarts integration across the discontinuity;
// so does a load change.  A sense tick that changes nothing is a passive
// boundary.
// The run never throws on numerical or fault trouble: the structured
// RideThroughReport carries the detection time, the bounded action trail,
// the worst droop, and a Recovered / Degraded / Lost classification.
#pragma once

#include <string>
#include <vector>

#include "pdn/transient.h"
#include "sc/supervisor.h"

namespace vstack::pdn {

enum class RideThroughOutcome {
  Recovered,  // droop back inside the recovery band on every live layer
  Degraded,   // out of the recovery band but inside the trip band
  Lost,       // a layer shut down, droop still tripped, or run truncated
};

const char* to_string(RideThroughOutcome outcome);

struct RideThroughOptions {
  /// Transient engine configuration.  `fault_events` carries the mid-run
  /// faults / load surges; `step_time` and `adaptive` are ignored (the
  /// ride-through engine has no built-in load step and always runs the
  /// adaptive, event-snapping integrator).
  PdnTransientOptions transient;

  /// Detection / escalation policy (sensing window = detection latency +
  /// hysteresis band + watchdog timeout).
  sc::SupervisorConfig supervisor;

  /// Output resistance of the bypass linear regulator switched in by
  /// BypassEngage [Ohm] (sc::LinearRegulatorDesign's default).
  double bypass_resistance = 0.05;

  /// Cap on how much PhaseRebalance may strengthen a surviving phase
  /// (R_series never drops below its design value / this factor).
  double max_rebalance_boost = 4.0;

  void validate() const;
};

/// Structured outcome of a ride-through run -- returned, never thrown.
struct RideThroughReport {
  /// Engine-level outcome (step statistics, recovery events, truncation).
  sim::TransientReport transient;

  RideThroughOutcome outcome = RideThroughOutcome::Recovered;
  double detected_at = -1.0;   // [s]; negative = supervisor never tripped
  double recovered_at = -1.0;  // [s]; negative = never re-entered the band
  double worst_droop = 0.0;    // worst sensed droop fraction (live layers)
  double final_droop = 0.0;    // last sensed droop fraction (live layers)

  /// Supervisor action trail, in firing order (bounded by the supervisor's
  /// max_actions).
  std::vector<sc::SupervisorAction> actions;
  /// Layers taken down by LayerShutdown, in shutdown order.
  std::vector<std::size_t> shutdown_layers;

  /// True when the transient engine completed the full horizon (says
  /// nothing about the outcome classification).
  bool ok() const { return transient.ok(); }

  /// One-line digest: outcome, detection time, action count, droops.
  std::string summary() const;
};

struct RideThroughResult {
  std::vector<double> time;            // [s] per accepted step
  std::vector<double> worst_noise;     // global max deviation fraction
  std::vector<double> supply_current;  // off-chip current [A]
  RideThroughReport report;
};

/// Run the fault ride-through scenario: steady per-layer `activities`, the
/// fault events from options.transient.fault_events, and the supervisor in
/// the loop.  Throws only on precondition violations; numerical trouble
/// truncates the waveform and is classified in the report.
RideThroughResult simulate_ride_through(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities, const RideThroughOptions& options);

/// The ride-through demo fault: one converter bank stuck off.
struct ConverterBankFault {
  TimedFaultEvent event;      // "converter bank stuck-off" at the given time
  std::size_t bank_size = 0;  // converters at the struck rail, survivors too
};

/// Every converter at rail `level` past the first `keep` sticks off at
/// `time`.  Throws unless `level` is an intermediate rail (1..layers-1)
/// that carries converters.
ConverterBankFault converter_bank_fault(const PdnModel& model,
                                        std::size_t level, std::size_t keep,
                                        double time);

}  // namespace vstack::pdn
