// Crash-safe transient fault-ride-through campaigns.
//
// The DC contingency engine (core/contingency.h) answers "does the damaged
// stack still balance at steady state?".  This runner replays each sampled
// N-k scenario as a LIVE transient: the faults strike mid-run
// (pdn::TimedFaultEvent) and the sc::StackSupervisor fights back, so every
// scenario ends as Recovered / Degraded / Lost instead of a static
// feasibility verdict.
//
// Campaigns are long and individual scenarios can be pathological, so the
// runner is hardened:
//
//   * Per-scenario wall-clock timeout (mapped onto the step controller's
//     wall_clock_budget_s) -- a near-singular post-fault system truncates
//     that ONE scenario instead of hanging the campaign.
//   * Bounded retry with relaxed LTE tolerances: a truncated or collapsed
//     scenario is re-run with rel/abs tolerances scaled by
//     retry_tolerance_relax, up to max_retries times.
//   * Checkpoint/resume: with manifest_path set, a JSONL manifest records a
//     header (seed, trial count, config hash) plus one line per finished
//     scenario (keyed by trial index + FNV-1a scenario hash), flushed as
//     each scenario completes.  Killing the process mid-campaign loses at
//     most the in-flight scenario; re-running with the same manifest skips
//     every finished one and reproduces bit-identical aggregates (results
//     are round-tripped through %.17g).
//
// Scenario sampling reuses ContingencyEngine::plan_monte_carlo, which
// consumes the seeded RNG entirely up front -- the trial fault sets match
// run_monte_carlo's for the same seed, so the DC and transient views of a
// campaign are directly comparable.
//
// Scenarios are independent (fresh PdnModel each), so campaigns run on the
// shared worker pool (core/task_pool.h) when options.execution asks for
// jobs > 1.  The pool's ordered reduction commits results in trial-index
// order on the calling thread: aggregates and the manifest are
// bit-identical to a serial run, and the manifest keeps its prefix
// property (entries are exactly trials [0, k)), so serial and parallel
// runs resume each other's manifests freely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/contingency.h"
#include "core/task_pool.h"
#include "pdn/ride_through.h"

namespace vstack::core {

struct CampaignOptions {
  /// Monte Carlo shape: seed, trials, faults per trial, converter/leakage
  /// extras, and the EM ranking knobs (mission_time, solve options).
  ContingencyOptions contingency;

  /// Transient replay configuration: engine options (duration, decap,
  /// tolerances), supervisor policy, and action-translation knobs.  Any
  /// fault_events already present are ignored -- the runner installs each
  /// scenario's sampled fault set itself.
  pdn::RideThroughOptions ride_through;

  /// When the sampled faults strike within each scenario's run [s].
  double fault_time = 50e-9;

  /// Per-scenario wall-clock timeout [s]; 0 disables.  Applied per attempt
  /// through the step controller's wall_clock_budget_s.
  double scenario_timeout_s = 30.0;

  /// Extra attempts after a truncated first run, each relaxing the LTE
  /// tolerances (rel_tol, abs_tol) by retry_tolerance_relax.
  std::size_t max_retries = 1;
  double retry_tolerance_relax = 10.0;

  /// JSONL checkpoint manifest path; empty disables checkpointing.  An
  /// existing manifest must match this campaign's seed/trials/config hash
  /// (else the runner refuses rather than silently mixing campaigns).
  std::string manifest_path;

  /// Scenario scheduling (core/task_pool.h).  Defaults to serial; with
  /// jobs > 1 scenarios evaluate concurrently but results commit in
  /// trial-index order, so aggregates, summary(), and the manifest bytes
  /// are identical to a serial run (wall_seconds aside, which measures
  /// real time).  Manifests are interchangeable between serial and
  /// parallel runs in both directions.  Caveat: scenario_timeout_s
  /// couples results to machine speed -- an oversubscribed run can trip a
  /// timeout serial would not; set it to 0 when bit-reproducibility
  /// matters more than a hang guard.
  ExecutionPolicy execution;

  void validate() const;
};

/// The calibrated stack-supervisor policy of every campaign and ride-through
/// front end: trip 10%, recovery 8%, 5 ns sensing, 20 ns detection
/// latency, 60 ns dwell, 300 ns watchdog (docs/fault_model.md §6 explains
/// the recovery band).
sc::SupervisorConfig calibrated_supervisor_policy();

/// Outcome of one scenario, as recorded in (and restored from) the manifest.
struct CampaignScenarioResult {
  std::size_t index = 0;        // trial number
  std::string label;            // "MC#<trial>"
  std::uint64_t scenario_hash = 0;  // FNV-1a over the fault recipe + strike time

  pdn::RideThroughOutcome outcome = pdn::RideThroughOutcome::Lost;
  bool completed = false;   // transient engine reached the full horizon
  bool timed_out = false;   // final attempt died on a budget (wall or steps)
  std::size_t attempts = 1; // 1 + retries actually used

  double detected_at = -1.0;
  double recovered_at = -1.0;
  double worst_droop = 0.0;
  double final_droop = 0.0;
  std::size_t action_count = 0;
  std::size_t shutdown_count = 0;
  double wall_seconds = 0.0;  // summed over attempts

  bool from_checkpoint = false;  // restored from the manifest, not re-run

  /// The final attempt was cut short by options.execution.deadline, not by
  /// physics or numerics.  Never serialized: the commit path discards the
  /// result -- and everything after it, keeping the committed prefix
  /// contiguous -- so manifests only ever hold trials that ran to a real
  /// verdict, and a resume re-runs the trial instead of inheriting a
  /// truncated waveform.
  bool deadline_truncated = false;
};

struct CampaignReport {
  std::vector<CampaignScenarioResult> scenarios;

  std::size_t recovered = 0;
  std::size_t degraded = 0;
  std::size_t lost = 0;
  std::size_t timed_out = 0;      // scenarios whose final attempt hit a budget
  double worst_droop = 0.0;       // over completed scenarios

  std::size_t resumed = 0;    // restored from the manifest
  std::size_t evaluated = 0;  // actually simulated this run
  std::uint64_t config_hash = 0;

  /// Trials the plan called for; scenarios.size() < planned only when the
  /// run was cancelled.
  std::size_t planned = 0;
  /// True when options.execution.deadline fired before every trial
  /// committed.  `scenarios` (and the manifest, when enabled) hold a
  /// contiguous trial prefix; re-running with the same manifest and an
  /// unexpired deadline finishes the campaign with identical aggregates.
  bool cancelled = false;

  /// Multi-line human-readable digest (counts + worst droop).
  std::string summary() const;
};

class CampaignRunner {
 public:
  CampaignRunner(const StudyContext& ctx, pdn::StackupConfig config);

  const pdn::StackupConfig& config() const { return config_; }

  /// Plan (seeded), resume from the manifest if one exists, evaluate the
  /// remaining scenarios, and aggregate.  Throws only on precondition
  /// violations (bad options, mismatched manifest); scenario-level trouble
  /// is classified, never thrown.
  CampaignReport run(const std::vector<double>& layer_activities,
                     const CampaignOptions& options = {}) const;

  // Decomposed hooks for external schedulers (src/shard's worker fleet):
  // plan() reproduces run()'s deterministic scenario list, run_scenario()
  // evaluates exactly one of them.  A worker that executes an arbitrary
  // subset of plan() through run_scenario() produces results byte-identical
  // to the serial run's manifest lines for those trials -- the property the
  // deterministic shard merge depends on.

  /// The seeded Monte Carlo scenario list run() would evaluate, in trial
  /// order.  Pure function of (config, activities, options.contingency).
  std::vector<PlannedScenario> plan(
      const std::vector<double>& layer_activities,
      const CampaignOptions& options) const;

  /// Evaluate one planned scenario (fresh PdnModel, timeout + bounded
  /// retry, deadline plumbing) exactly as run() would.
  CampaignScenarioResult run_scenario(
      const PlannedScenario& scenario,
      const std::vector<double>& layer_activities,
      const CampaignOptions& options) const;

 private:
  CampaignScenarioResult evaluate_scenario(
      const PlannedScenario& scenario,
      const std::vector<double>& layer_activities,
      const CampaignOptions& options) const;

  const StudyContext& ctx_;
  pdn::StackupConfig config_;
};

/// Stacked vs regular-3D survivability under the same campaign shape: one
/// row per topology (each campaign samples its own network's candidates).
/// With options.manifest_path set, per-topology manifests get "-stacked" /
/// "-regular" inserted before the extension.
struct SurvivabilityRow {
  std::string label;
  std::size_t recovered = 0;
  std::size_t degraded = 0;
  std::size_t lost = 0;
  std::size_t timed_out = 0;
  double worst_droop = 0.0;
};

struct SurvivabilityTable {
  std::vector<SurvivabilityRow> rows;
  /// Fixed-width text table for CLI / bench output.
  std::string format() const;
};

SurvivabilityTable compare_survivability(
    const StudyContext& ctx, const pdn::StackupConfig& stacked,
    const pdn::StackupConfig& regular,
    const std::vector<double>& layer_activities,
    const CampaignOptions& options = {});

}  // namespace vstack::core
