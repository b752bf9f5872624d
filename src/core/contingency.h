// Contingency analysis: close the reliability loop (paper Sec. 3.3).
//
// The EM study predicts which C4 pads and TSVs wear out first; this engine
// actually REMOVES them from the network and reports whether charge
// recycling still balances -- post-fault IR drop, converter current-limit
// violations, redistributed per-conductor currents, and floating-island
// infeasibility.  Two campaign styles:
//
//   * Deterministic N-1: open each candidate conductor group in turn (the
//     top-k by EM failure probability, or every candidate).
//   * Seeded Monte Carlo N-k: each trial samples k distinct conductor
//     faults weighted by failure probability (each an open or a resistance
//     degradation by coin flip), optionally plus stuck-off converter
//     phases and leakage shorts.
//
// The campaign half is grid-independent and runs against a FaultTarget:
// ContingencyEngine is the target for synthesized stacks (pdn::PdnModel),
// pgio/campaign.h the one for imported benchmark grids.  Damaged networks
// may be near-singular; all solves run through the non-throwing la::Solver
// (CG, then dense LU) -- every case ends as Survivable, Degraded, or
// Infeasible with a structured diagnostic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/study.h"
#include "core/task_pool.h"
#include "pdn/fault.h"

namespace vstack::core {

/// Per-conductor-group EM risk: the crowding-adjusted hot current and the
/// lognormal failure probability at the ranking horizon.
struct EmRiskEntry {
  std::size_t conductor_index = 0;  // into network.conductors()
  pdn::ConductorKind kind = pdn::ConductorKind::GridStrap;
  std::size_t count = 0;            // parallel conductors in the group
  double unit_current = 0.0;        // hot-conductor current [A]
  double failure_probability = 0.0;
};

/// Campaign shape shared by every grid: which N-1 cases run, how Monte
/// Carlo trials are sampled, the Degraded budget, and case scheduling.
struct CampaignShape {
  /// N-1 sweep size: top_k candidates by risk, or every candidate group
  /// when exhaustive is set.
  std::size_t top_k = 8;
  bool exhaustive = false;

  /// Post-fault budget: max node deviation as a fraction of the supply.
  /// Cases above it (or over the converter current limit) classify as
  /// Degraded.
  double noise_budget_fraction = 0.10;

  /// Monte Carlo N-k campaign shape.
  std::size_t trials = 25;
  std::size_t faults_per_trial = 2;
  std::size_t leakage_faults_per_trial = 0;    // shorts to ground per trial
  double leakage_resistance = 10.0;            // [Ohm]
  double degrade_factor = 8.0;  // resistance multiplier for partial faults
  std::uint64_t seed = 42;

  /// Case scheduling (core/task_pool.h).  Defaults to serial; with
  /// jobs > 1 the independent cases (each on a fresh copy of the grid)
  /// evaluate concurrently while the report is reduced in case order, so
  /// the outcome counts, case list, and worst-deviation aggregate are
  /// bit-identical to a serial run.  Planning (RNG sampling, ranking,
  /// baseline solve) always stays serial so seeds reproduce exactly.
  ExecutionPolicy execution;
};

struct ContingencyOptions : CampaignShape {
  std::size_t converter_faults_per_trial = 0;  // stuck-off phases per trial

  pdn::PdnSolveOptions solve;
};

/// One planned case, fully determined before any evaluation.  All RNG
/// consumption happens while PLANNING, never while evaluating, so a Monte
/// Carlo campaign can be replayed (or resumed from a checkpoint) scenario-
/// by-scenario and still reproduce run_monte_carlo's exact fault sets.
struct PlannedScenario {
  std::size_t index = 0;  // position within the campaign
  std::string label;      // "MC#<trial>", or the target's N-1 label
  pdn::FaultSet faults;
};

enum class CaseOutcome {
  Survivable,  // converged, within noise budget and converter limits
  Degraded,    // converged, but a budget or converter limit is violated
  Infeasible   // no converged solution, or loads stranded on an island
};

struct ContingencyCase {
  std::string label;
  pdn::FaultSet faults;
  CaseOutcome outcome = CaseOutcome::Infeasible;
  bool solved = false;
  std::size_t solve_attempts = 1;  // la::Solver attempts (CG, dense LU)
  std::size_t floating_islands = 0;
  double max_node_deviation_fraction = 0.0;
  double max_ir_drop_fraction = 0.0;
  double max_converter_current = 0.0;
  bool converter_limit_ok = true;
  double supply_current = 0.0;
  /// Sum of all TSV-array currents: conservation check that the faulted
  /// conductor's current actually redistributed to survivors.
  double tsv_current_sum = 0.0;
  /// Load current [A] injected into floating islands; any (above 1 pA)
  /// makes the case Infeasible.
  double stranded_load_current = 0.0;
  std::string diagnostic;

  /// The solve was cut short by options.execution.deadline.  Not evidence
  /// of infeasibility: the commit path discards the case (and everything
  /// after it) instead of counting a timeout artifact as Infeasible.
  bool deadline_truncated = false;
};

struct ContingencyReport {
  // Fault-free baseline.
  double base_max_node_deviation_fraction = 0.0;
  double base_max_ir_drop_fraction = 0.0;
  double base_max_converter_current = 0.0;
  double base_tsv_current_sum = 0.0;
  double base_supply_current = 0.0;

  std::vector<EmRiskEntry> ranking;  // descending failure probability
  std::vector<ContingencyCase> cases;

  std::size_t survivable = 0;
  std::size_t degraded = 0;
  std::size_t infeasible = 0;
  double worst_post_fault_deviation = 0.0;  // over solved cases

  /// Cases the sweep/campaign planned to evaluate; cases.size() < planned
  /// only when `cancelled` (options.execution.deadline fired mid-run --
  /// `cases` hold the contiguous committed prefix).
  std::size_t planned = 0;
  bool cancelled = false;
};

/// The grid-specific half of a contingency campaign.  The engine functions
/// below plan N-1 sweeps, sample Monte Carlo trials, evaluate cases in
/// order and classify them; a target only solves its own grid, intact or
/// damaged.
class FaultTarget {
 public:
  /// The fault-free grid, solved once.
  struct Baseline {
    ContingencyReport report;    // base_* fields and every ranked candidate
    std::size_t nodes = 0;       // leakage sites the sampler draws from
    std::size_t converters = 0;  // stuck-off candidates
  };

  virtual ~FaultTarget() = default;

  /// Solve the intact grid and rank its candidates (descending risk).
  /// nullopt when the baseline does not solve: the campaign plans nothing.
  virtual std::optional<Baseline> baseline() const = 0;

  /// Apply `faults` to a fresh copy of the grid and solve it, giving up
  /// once `deadline` fires.  Fills the measured fields of the case (solved,
  /// attempts, metrics, stranded current, diagnostic) and may name it; the
  /// engine sets the faults, the outcome and the truncation flag.
  virtual ContingencyCase solve(const pdn::FaultSet& faults,
                                const Deadline& deadline) const = 0;

  /// Label of the N-1 case that opens ranking entry `rank`.
  virtual std::string open_label(std::size_t rank,
                                 const EmRiskEntry& entry) const = 0;
};

/// Evaluate one explicit fault set (building block of both campaigns).
/// A nonempty `label` overrides the target's name for the case.
ContingencyCase evaluate_case(const FaultTarget& target,
                              const pdn::FaultSet& faults,
                              const CampaignShape& shape,
                              const std::string& label = "");

/// Deterministic N-1 sweep over the target's ranking.
ContingencyReport run_n_minus_1(const FaultTarget& target,
                                const CampaignShape& shape);

/// Sample the Monte Carlo trial list from a solved baseline.  All RNG
/// consumption happens here, never while evaluating.
std::vector<PlannedScenario> plan_monte_carlo(
    const FaultTarget::Baseline& baseline, const CampaignShape& shape,
    std::size_t converter_faults_per_trial = 0);

/// Seeded Monte Carlo N-k campaign: plan_monte_carlo, then evaluate the plan.
ContingencyReport run_monte_carlo(const FaultTarget& target,
                                  const CampaignShape& shape,
                                  std::size_t converter_faults_per_trial = 0);

/// The synthesized-stack front end: a FaultTarget over pdn::PdnModel built
/// from `config` under the study context's floorplan and core model.
class ContingencyEngine {
 public:
  ContingencyEngine(const StudyContext& ctx, pdn::StackupConfig config);

  const pdn::StackupConfig& config() const { return config_; }

  /// Deterministic N-1 sweep: open each candidate group in turn.
  ContingencyReport run_n_minus_1(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options = {}) const;

  /// Seeded Monte Carlo N-k campaign (reproducible from options.seed).
  ContingencyReport run_monte_carlo(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options = {}) const;

  /// Sample the full Monte Carlo trial list WITHOUT evaluating anything.
  /// run_monte_carlo is exactly: plan, then evaluate_case over the plan --
  /// the trial fault sets here are bit-identical to what it would build for
  /// the same seed and options.  The transient campaign runner
  /// (core/campaign.h) uses this to checkpoint/resume mid-campaign.
  std::vector<PlannedScenario> plan_monte_carlo(
      const std::vector<double>& layer_activities,
      const ContingencyOptions& options = {}) const;

  /// Evaluate one explicit fault set (building block of both campaigns).
  ContingencyCase evaluate_case(const pdn::FaultSet& faults,
                                const std::vector<double>& layer_activities,
                                const ContingencyOptions& options = {},
                                const std::string& label = "") const;

 private:
  const StudyContext& ctx_;
  pdn::StackupConfig config_;
};

}  // namespace vstack::core
