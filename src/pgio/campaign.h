// Campaign routes for imported benchmark grids: the same robustness
// machinery the synthesized stacks get -- deterministic N-1 sweeps, seeded
// Monte Carlo N-k campaigns, load-scale sweeps, and a load-step
// ride-through transient -- expressed against an ImportedGrid.
//
// The contingency campaigns run on core's engine (core/contingency.h):
// this file only supplies the grid-specific half of a core::FaultTarget --
// the baseline solve and its ranking, and solving a faulted copy of the
// grid.  N-1 planning, the Monte Carlo sampler, ordered evaluation,
// deadline handling and Survivable/Degraded/Infeasible classification are
// core's, so reports have one shape and one meaning regardless of where
// the grid came from.  What stays grid-specific:
//
//   * Ranking is by DC current stress, not EM lifetime: imported netlists
//     carry no geometry, so EmRiskEntry::failure_probability holds each
//     conductor's share of total conductor current (a stress proxy that
//     preserves the "most-loaded first" ordering N-1 wants).  The reports
//     keep the top_k entries of it (all of them when exhaustive).
//   * Converter fields of the report stay zero -- benchmark grids have no
//     converters.
#pragma once

#include <string>
#include <vector>

#include "core/contingency.h"
#include "pgio/grid.h"

namespace vstack::pgio {

/// Campaign shape plus the grid solve.  On imported grids a case's
/// deviation is |v - nominal| / max pad potential.
struct GridCampaignOptions : core::CampaignShape {
  GridSolveOptions solve;
};

/// Rank every conductor by DC current stress under `baseline`
/// (descending).  failure_probability is the conductor's share of the
/// summed conductor current -- see the header comment.
std::vector<core::EmRiskEntry> rank_by_stress(const ImportedGrid& grid,
                                              const GridSolution& baseline);

/// Deterministic N-1: open each ranked conductor in turn.
core::ContingencyReport run_n_minus_1(const ImportedGrid& grid,
                                      const GridCampaignOptions& options = {});

/// Seeded Monte Carlo N-k on core's sampler: each trial draws
/// faults_per_trial distinct conductors weighted by current stress (each a
/// full open or a degrade_factor degradation) plus leakage_faults_per_trial
/// shorts to ground at uniformly drawn unknown slots.
core::ContingencyReport run_monte_carlo(const ImportedGrid& grid,
                                        const GridCampaignOptions& options =
                                            {});

/// Evaluate one explicit fault recipe on a fresh copy of `grid` (building
/// block of both campaigns; indices refer to grid.conductors() / slots).
core::ContingencyCase evaluate_case(const ImportedGrid& grid,
                                    const pdn::FaultSet& faults,
                                    const GridCampaignOptions& options = {},
                                    const std::string& label = "");

/// Solve the grid at each load scale (fresh grid copy per scale so the
/// cases parallelize); results are in `scales` order.
std::vector<GridSolution> sweep_load_scale(const ImportedGrid& grid,
                                           const std::vector<double>& scales,
                                           const GridCampaignOptions& options =
                                               {});

// ---------------------------------------------------------------------------
// Load-step ride-through (the imported-grid transient route).

struct LoadStepOptions {
  double step_scale = 2.0;    // load multiplier after the step
  double duration_s = 1e-6;   // simulated window after the step
  /// Backward-Euler step.  It must tile duration_s (the divisibility rule of
  /// circuit's fixed grid against the clock period), in at most the default
  /// step budget of 2,000,000 steps.
  double dt_s = 5e-9;
  /// Per-node decap [F] used when the netlist carries no C cards (most IBM
  /// DC benchmarks); netlist decap wins when present.
  double default_decap_f = 1e-12;
  /// Recovered when every node is within recovery_fraction * (max pad
  /// potential) of the post-step DC solution.
  double recovery_fraction = 0.02;
  GridSolveOptions solve;
};

struct LoadStepReport {
  bool solve_ok = false;
  std::string diagnostic;
  std::size_t steps = 0;

  double pre_step_deviation_v = 0.0;   // DC deviation before the step
  double post_step_deviation_v = 0.0;  // DC deviation of the settled target
  double worst_deviation_v = 0.0;      // worst instantaneous |v - nominal|
  double worst_droop_v = 0.0;          // worst |v(t) - v_pre| excursion

  bool recovered = false;
  /// First grid point inside the recovery band, so it resolves only to
  /// dt_s: a 1 Ohm / 1 nF RC stepped x2 recovers at RC ln 5 = 1.61 ns
  /// analytically, and the route reports 5.0 ns at the default dt_s and
  /// 3.0 ns at dt_s = 1 ns.
  double recovery_time_s = -1.0;
  double final_error_v = 0.0;     // max |v(end) - v_target|
};

/// Backward-Euler transient of a load step at t = 0: capacitors stamp the
/// standard companion model (G + C/h, history current (C/h) v_old), the
/// pre-step DC point is the initial condition, and the post-step DC point
/// is the recovery target.  Throws when dt_s does not tile the window or
/// the window needs more steps than the budget; non-throwing on solver
/// failure (check solve_ok).
LoadStepReport simulate_load_step(const ImportedGrid& grid,
                                  const LoadStepOptions& options = {});

}  // namespace vstack::pgio
