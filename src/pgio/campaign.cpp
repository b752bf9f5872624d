#include "pgio/campaign.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "sim/step_control.h"
#include "telemetry/telemetry.h"

namespace vstack::pgio {

namespace {

void apply_faults(ImportedGrid& grid, const pdn::FaultSet& faults) {
  for (const auto& fault : faults.faults()) {
    switch (fault.kind) {
      case pdn::FaultKind::OpenConductor:
        grid.remove_conductor_units(fault.index, fault.units);
        break;
      case pdn::FaultKind::DegradeConductor:
        grid.scale_conductor_resistance(fault.index, fault.severity);
        break;
      case pdn::FaultKind::LeakageToGround:
        grid.add_leakage_to_ground(fault.index, fault.severity);
        break;
      case pdn::FaultKind::ConverterStuckOff:
        VS_FAIL("imported benchmark grids have no converters");
    }
  }
}

double slot_voltage(const ImportedGrid& grid, const GridSolution& solution,
                    std::size_t slot) {
  return grid.is_fixed(slot) ? grid.fixed_potential(slot)
                             : solution.voltages[slot];
}

/// Max |pad potential| -- the denominator every fraction in this file uses.
double reference_potential(const ImportedGrid& grid) {
  double ref = 0.0;
  for (std::size_t s = grid.unknown_count(); s < grid.slot_count(); ++s) {
    ref = std::max(ref, std::abs(grid.fixed_potential(s)));
  }
  return ref;
}

// The imported-grid target.  Every solve runs on a copy of `grid`, the
// baseline included, so each case starts cold from the unsolved import.
class GridTarget final : public core::FaultTarget {
 public:
  GridTarget(const ImportedGrid& grid, const GridSolveOptions& solve)
      : grid_(grid), solve_(solve) {}

  std::optional<Baseline> baseline() const override {
    const GridSolution solution = ImportedGrid(grid_).solve(solve_);
    if (!solution.solve_ok) return std::nullopt;
    Baseline base;
    base.report.base_max_node_deviation_fraction =
        solution.max_deviation_fraction;
    base.report.base_max_ir_drop_fraction = solution.max_deviation_fraction;
    base.report.base_supply_current = solution.supply_current_a;
    base.report.ranking = rank_by_stress(grid_, solution);
    base.nodes = grid_.unknown_count();
    return base;
  }

  core::ContingencyCase solve(const pdn::FaultSet& faults,
                              const Deadline& deadline) const override {
    ImportedGrid damaged(grid_);
    apply_faults(damaged, faults);
    GridSolveOptions options = solve_;
    options.iterative.deadline = deadline;
    const GridSolution solution = damaged.solve(options);

    core::ContingencyCase one;
    one.solved = solution.solve_ok;
    one.solve_attempts =
        std::max<std::size_t>(1, solution.report.attempts.size());
    one.floating_islands = solution.floating_islands;
    one.diagnostic = solution.diagnostic;
    if (!solution.solve_ok) return one;
    one.max_node_deviation_fraction = solution.max_deviation_fraction;
    one.max_ir_drop_fraction = solution.max_deviation_fraction;
    one.supply_current = solution.supply_current_a;
    one.stranded_load_current = solution.floating_load_current_a;
    return one;
  }

  std::string open_label(std::size_t rank,
                         const core::EmRiskEntry& entry) const override {
    return "N-1#" + std::to_string(rank) + " open[" +
           std::to_string(entry.conductor_index) + "]";
  }

 private:
  const ImportedGrid& grid_;
  const GridSolveOptions& solve_;
};

/// The reports carry the top_k ranked conductors (every one when
/// exhaustive); the engine ranked them all for the sampler.
core::ContingencyReport keep_top_k(core::ContingencyReport report,
                                   const GridCampaignOptions& options) {
  if (!options.exhaustive && report.ranking.size() > options.top_k) {
    report.ranking.resize(options.top_k);
  }
  return report;
}

/// Steps of the load step's fixed grid.  dt_s must tile the window, and the
/// count must fit the default step budget of the transient engines.
std::size_t load_step_count(const LoadStepOptions& options) {
  std::ostringstream values;
  values << "window " << options.duration_s << " s, dt " << options.dt_s
         << " s";
  VS_REQUIRE(sim::divides_evenly(options.duration_s, options.dt_s),
             "load-step dt does not divide the window (" + values.str() + ")");
  const std::size_t steps =
      sim::fixed_step_count(options.duration_s, options.dt_s);
  const std::size_t budget = sim::StepControlOptions{}.max_steps;
  VS_REQUIRE(steps <= budget,
             "load-step window needs more than the step budget of " +
                 std::to_string(budget) + " steps (" + values.str() + ")");
  return steps;
}

}  // namespace

std::vector<core::EmRiskEntry> rank_by_stress(const ImportedGrid& grid,
                                              const GridSolution& baseline) {
  VS_REQUIRE(baseline.solve_ok, "stress ranking needs a solved baseline");
  VS_REQUIRE(baseline.voltages.size() == grid.unknown_count(),
             "baseline does not match this grid");
  std::vector<core::EmRiskEntry> entries;
  double total_current = 0.0;
  const auto& conductors = grid.conductors();
  for (std::size_t index = 0; index < conductors.size(); ++index) {
    const auto& c = conductors[index];
    if (c.count == 0 || c.unit_resistance <= 0.0) continue;
    const double current = std::abs(
        c.conductance() * (slot_voltage(grid, baseline, c.node_a) -
                           slot_voltage(grid, baseline, c.node_b)));
    core::EmRiskEntry entry;
    entry.conductor_index = index;
    entry.kind = c.kind;
    entry.count = c.count;
    entry.unit_current = current / static_cast<double>(c.count);
    entry.failure_probability = current;  // normalized to a share below
    entries.push_back(entry);
    total_current += current;
  }
  if (total_current > 0.0) {
    for (auto& entry : entries) entry.failure_probability /= total_current;
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const core::EmRiskEntry& a, const core::EmRiskEntry& b) {
                     return a.failure_probability > b.failure_probability;
                   });
  return entries;
}

core::ContingencyCase evaluate_case(const ImportedGrid& grid,
                                    const pdn::FaultSet& faults,
                                    const GridCampaignOptions& options,
                                    const std::string& label) {
  return core::evaluate_case(GridTarget(grid, options.solve), faults,
                             options, label);
}

core::ContingencyReport run_n_minus_1(const ImportedGrid& grid,
                                      const GridCampaignOptions& options) {
  return keep_top_k(
      core::run_n_minus_1(GridTarget(grid, options.solve), options), options);
}

core::ContingencyReport run_monte_carlo(const ImportedGrid& grid,
                                        const GridCampaignOptions& options) {
  return keep_top_k(
      core::run_monte_carlo(GridTarget(grid, options.solve), options),
      options);
}

LoadStepReport simulate_load_step(const ImportedGrid& grid,
                                  const LoadStepOptions& options) {
  VS_SPAN("pgio.campaign.load_step");
  VS_REQUIRE(options.dt_s > 0.0, "dt must be positive");
  VS_REQUIRE(options.duration_s >= options.dt_s,
             "duration must cover at least one step");
  const std::size_t steps = load_step_count(options);
  LoadStepReport report;

  ImportedGrid work(grid);
  const GridSolution pre = work.solve(options.solve);
  if (!pre.solve_ok) {
    report.diagnostic = "pre-step DC solve failed: " + pre.diagnostic;
    return report;
  }
  const GridSolution target =
      work.solve_scaled(options.step_scale, options.solve);
  if (!target.solve_ok) {
    report.diagnostic = "post-step DC solve failed: " + target.diagnostic;
    return report;
  }
  report.pre_step_deviation_v = pre.max_deviation_v;
  report.post_step_deviation_v = target.max_deviation_v;

  const std::size_t n = work.unknown_count();
  if (n == 0) {
    report.solve_ok = true;
    report.recovered = true;
    report.recovery_time_s = 0.0;
    return report;
  }

  // Per-slot decap: the netlist's C cards when it has any, else the
  // uniform default (the IBM DC benchmarks carry no caps).
  std::vector<double> cap(work.slot_capacitance().begin(),
                          work.slot_capacitance().begin() +
                              static_cast<std::ptrdiff_t>(n));
  bool has_netlist_caps = false;
  for (const double c : cap) has_netlist_caps |= c > 0.0;
  if (!has_netlist_caps) cap.assign(n, options.default_decap_f);

  // Backward-Euler companion system: (G + C/h) v_new = b + (C/h) v_old.
  const double h = options.dt_s;
  la::CooBuilder builder(n);
  la::Vector fixed_rhs, load_rhs;
  work.stamp_conductances(builder, fixed_rhs, load_rhs);
  for (std::size_t s = 0; s < n; ++s) builder.add(s, s, cap[s] / h);
  const la::CsrMatrix matrix = builder.build();
  la::Solver solver(matrix, {.backend = options.solve.backend});

  const double ref = reference_potential(work);
  const double band =
      ref > 0.0 ? options.recovery_fraction * ref : options.recovery_fraction;
  la::Vector v = pre.voltages;
  la::Vector rhs(n);
  double error_inf = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    for (std::size_t s = 0; s < n; ++s) {
      rhs[s] = fixed_rhs[s] + options.step_scale * load_rhs[s] +
               (cap[s] / h) * v[s];
    }
    const la::SolveReport step =
        solver.solve(rhs, v, options.solve.iterative);
    if (!step.converged) {
      report.steps = k;
      report.diagnostic = "transient step " + std::to_string(k) +
                          " failed: " + step.diagnostic;
      return report;
    }
    error_inf = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (work.is_floating(s)) continue;
      report.worst_deviation_v = std::max(
          report.worst_deviation_v, std::abs(v[s] - work.nominal_potential(s)));
      report.worst_droop_v =
          std::max(report.worst_droop_v, std::abs(v[s] - pre.voltages[s]));
      error_inf = std::max(error_inf, std::abs(v[s] - target.voltages[s]));
    }
    if (!report.recovered && error_inf <= band) {
      report.recovered = true;
      report.recovery_time_s = static_cast<double>(k + 1) * h;
    }
  }
  report.steps = steps;
  report.final_error_v = error_inf;
  report.solve_ok = true;
  return report;
}

}  // namespace vstack::pgio
