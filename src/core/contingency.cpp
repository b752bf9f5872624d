#include "core/contingency.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "telemetry/telemetry.h"

namespace vstack::core {

namespace {

// Registered at static initialization.  Registering it lazily, inside the
// first case on a pool worker, measured 2-4 MiB more peak RSS on the
// ext_grid benchmark: the registry's new entries land in that worker's
// malloc arena.
const telemetry::Counter c_cases("core.contingency.cases");

bool is_em_candidate(pdn::ConductorKind kind) {
  switch (kind) {
    case pdn::ConductorKind::C4Vdd:
    case pdn::ConductorKind::C4Gnd:
    case pdn::ConductorKind::TsvVdd:
    case pdn::ConductorKind::TsvGnd:
    case pdn::ConductorKind::RecyclingTsv:
    case pdn::ConductorKind::ThroughVia:
      return true;
    case pdn::ConductorKind::GridStrap:
    case pdn::ConductorKind::PackageVdd:
    case pdn::ConductorKind::PackageGnd:
    case pdn::ConductorKind::Leakage:
      return false;
  }
  return false;
}

bool is_tsv_kind(pdn::ConductorKind kind) {
  return kind == pdn::ConductorKind::TsvVdd ||
         kind == pdn::ConductorKind::TsvGnd ||
         kind == pdn::ConductorKind::RecyclingTsv;
}

double node_voltage(const pdn::PdnSolution& sol, std::size_t node,
                    double supply_voltage) {
  if (node == pdn::kFixedSupply) return supply_voltage;
  if (node == pdn::kFixedGround) return 0.0;
  return sol.node_voltages[node];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// The synthesized-stack target: every case builds its own PdnModel, so
// cases are independent and parallelize freely.
class PdnTarget final : public FaultTarget {
 public:
  PdnTarget(const StudyContext& ctx, const pdn::StackupConfig& config,
            const std::vector<double>& layer_activities,
            const ContingencyOptions& options)
      : ctx_(ctx),
        config_(config),
        activities_(layer_activities),
        options_(options) {}

  std::optional<Baseline> baseline() const override {
    const pdn::PdnModel model(config_, ctx_.layer_floorplan);
    const auto sol = model.solve_activities(ctx_.core_model, activities_,
                                            options_.solve);
    VS_REQUIRE(sol.solve_ok, "baseline solve failed: " + sol.diagnostic);

    Baseline base;
    base.report.base_max_node_deviation_fraction =
        sol.max_node_deviation_fraction;
    base.report.base_max_ir_drop_fraction = sol.max_ir_drop_fraction;
    base.report.base_max_converter_current = sol.max_converter_current;
    base.report.base_tsv_current_sum = sum(sol.tsv_currents);
    base.report.base_supply_current = sol.supply_current;
    base.report.ranking = rank(model.network(), sol);
    base.nodes = model.network().node_count();
    base.converters = model.network().converters().size();
    return base;
  }

  ContingencyCase solve(const pdn::FaultSet& faults,
                        const Deadline& deadline) const override {
    pdn::PdnModel model(config_, ctx_.layer_floorplan);
    ContingencyCase result;
    result.label = faults.describe(model.network());
    faults.apply_to(model.network_mutable());
    // The deadline rides the solve options so an ill-conditioned
    // post-fault system aborts at the next Krylov iteration poll instead
    // of stalling the whole sweep.
    pdn::PdnSolveOptions solve = options_.solve;
    solve.iterative.deadline = deadline;
    const auto sol =
        model.solve_activities(ctx_.core_model, activities_, solve);

    result.solved = sol.solve_ok;
    result.solve_attempts =
        std::max<std::size_t>(1, sol.report.attempts.size());
    result.floating_islands = sol.floating_island_count;
    result.diagnostic = sol.diagnostic;
    if (!sol.solve_ok) return result;

    result.max_node_deviation_fraction = sol.max_node_deviation_fraction;
    result.max_ir_drop_fraction = sol.max_ir_drop_fraction;
    result.max_converter_current = sol.max_converter_current;
    result.converter_limit_ok = sol.converter_limit_ok;
    result.supply_current = sol.supply_current;
    result.tsv_current_sum = sum(sol.tsv_currents);
    result.stranded_load_current = sol.floating_load_current;
    return result;
  }

  std::string open_label(std::size_t,
                         const EmRiskEntry& entry) const override {
    std::ostringstream label;
    label << "N-1 open[" << pdn::conductor_kind_name(entry.kind) << "#"
          << entry.conductor_index << " x" << entry.count << "]";
    return label.str();
  }

 private:
  std::vector<EmRiskEntry> rank(const pdn::PdnNetwork& net,
                                const pdn::PdnSolution& solution) const {
    // Ranking horizon: the baseline TSV array's expected damage-free
    // lifetime (its P = 0.5 crossing).
    double horizon =
        em::array_mttf(solution.tsv_currents, ctx_.black, ctx_.mttf_options);
    if (!std::isfinite(horizon)) horizon = 0.0;  // unstressed: by current

    std::vector<EmRiskEntry> ranking;
    for (std::size_t i = 0; i < net.conductors().size(); ++i) {
      const auto& group = net.conductors()[i];
      if (group.count == 0 || !is_em_candidate(group.kind)) continue;
      const double per_unit =
          std::abs(
              node_voltage(solution, group.node_a, solution.supply_voltage) -
              node_voltage(solution, group.node_b, solution.supply_voltage)) /
          group.unit_resistance;
      // Current crowding: the same model the EM arrays use (solver.cpp).
      double hot = per_unit;
      if (is_tsv_kind(group.kind)) {
        const std::size_t sharing =
            std::min(group.count, config_.params.tsv_crowding_share);
        hot = per_unit * static_cast<double>(group.count) /
              static_cast<double>(sharing);
      }
      EmRiskEntry entry;
      entry.conductor_index = i;
      entry.kind = group.kind;
      entry.count = group.count;
      entry.unit_current = hot;
      entry.failure_probability =
          horizon > 0.0 ? em::lognormal_failure_cdf(
                              horizon, ctx_.black.median_ttf(hot),
                              ctx_.mttf_options.sigma)
                        : 0.0;
      ranking.push_back(entry);
    }

    std::sort(ranking.begin(), ranking.end(),
              [](const EmRiskEntry& a, const EmRiskEntry& b) {
                if (a.failure_probability != b.failure_probability) {
                  return a.failure_probability > b.failure_probability;
                }
                if (a.unit_current != b.unit_current) {
                  return a.unit_current > b.unit_current;
                }
                return a.conductor_index < b.conductor_index;
              });
    return ranking;
  }

  const StudyContext& ctx_;
  const pdn::StackupConfig& config_;
  const std::vector<double>& activities_;
  const ContingencyOptions& options_;
};

// Evaluate `plan` on the worker pool and commit the verdicts in plan order.
void run_plan(const FaultTarget& target, const CampaignShape& shape,
              const std::vector<PlannedScenario>& plan,
              ContingencyReport& report) {
  std::vector<ContingencyCase> evaluated(plan.size());
  report.planned = plan.size();
  bool truncated = false;
  const TaskPool pool(shape.execution);
  pool.run_ordered(
      plan.size(),
      [&](std::size_t i) {
        evaluated[i] =
            evaluate_case(target, plan[i].faults, shape, plan[i].label);
      },
      [&](std::size_t i) {
        // Drop deadline-truncated cases and everything after them: the
        // committed cases stay a contiguous prefix of real verdicts.
        ContingencyCase& one = evaluated[i];
        if (truncated || one.deadline_truncated) {
          truncated = true;
          return;
        }
        switch (one.outcome) {
          case CaseOutcome::Survivable: ++report.survivable; break;
          case CaseOutcome::Degraded:   ++report.degraded;   break;
          case CaseOutcome::Infeasible: ++report.infeasible; break;
        }
        if (one.solved) {
          report.worst_post_fault_deviation =
              std::max(report.worst_post_fault_deviation,
                       one.max_node_deviation_fraction);
        }
        report.cases.push_back(std::move(one));
      });
  report.cancelled = report.cases.size() < plan.size();
}

}  // namespace

ContingencyCase evaluate_case(const FaultTarget& target,
                              const pdn::FaultSet& faults,
                              const CampaignShape& shape,
                              const std::string& label) {
  VS_SPAN("core.contingency.case");
  c_cases.add();
  const Deadline& deadline = shape.execution.deadline;
  ContingencyCase result = target.solve(faults, deadline);
  result.faults = faults;
  if (!label.empty()) result.label = label;
  // A concurrent genuine failure is indistinguishable from a timeout here;
  // dropping it is still sound -- the case re-runs on the next submission.
  result.deadline_truncated = !result.solved && deadline.expired();

  if (!result.solved) {
    result.outcome = CaseOutcome::Infeasible;
  } else if (result.stranded_load_current > 1e-12) {
    result.outcome = CaseOutcome::Infeasible;
    if (result.diagnostic.empty()) {
      result.diagnostic = "load current stranded on a floating island";
    }
  } else if (!result.converter_limit_ok ||
             result.max_node_deviation_fraction >
                 shape.noise_budget_fraction) {
    result.outcome = CaseOutcome::Degraded;
  } else {
    result.outcome = CaseOutcome::Survivable;
  }
  return result;
}

ContingencyReport run_n_minus_1(const FaultTarget& target,
                                const CampaignShape& shape) {
  VS_SPAN("core.contingency.n_minus_1");
  auto base = target.baseline();
  if (!base) return {};
  ContingencyReport report = std::move(base->report);
  const std::size_t cases =
      shape.exhaustive ? report.ranking.size()
                       : std::min(shape.top_k, report.ranking.size());
  std::vector<PlannedScenario> plan;
  plan.reserve(cases);
  for (std::size_t k = 0; k < cases; ++k) {
    const EmRiskEntry& entry = report.ranking[k];
    plan.push_back(PlannedScenario{
        k, target.open_label(k, entry),
        pdn::FaultSet().open_conductor(entry.conductor_index)});
  }
  run_plan(target, shape, plan, report);
  return report;
}

std::vector<PlannedScenario> plan_monte_carlo(
    const FaultTarget::Baseline& baseline, const CampaignShape& shape,
    std::size_t converter_faults_per_trial) {
  const std::vector<EmRiskEntry>& ranking = baseline.report.ranking;
  VS_REQUIRE(!ranking.empty(), "no fault candidates in this network");
  // Sampling weights: failure probability with a floor so every candidate
  // stays reachable even when the ranking calls it unstressed.
  std::vector<double> cumulative(ranking.size());
  double total = 0.0;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    total += ranking[i].failure_probability + 1e-9;
    cumulative[i] = total;
  }

  Rng rng(shape.seed);
  std::vector<PlannedScenario> plan;
  plan.reserve(shape.trials);
  for (std::size_t trial = 0; trial < shape.trials; ++trial) {
    pdn::FaultSet faults;
    std::vector<std::size_t> chosen;
    std::size_t guard = 0;
    while (chosen.size() < std::min(shape.faults_per_trial, ranking.size()) &&
           ++guard < 64 * shape.faults_per_trial) {
      const double u = rng.uniform(0.0, total);
      const std::size_t pick = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), u) -
          cumulative.begin());
      if (std::find(chosen.begin(), chosen.end(), pick) != chosen.end()) {
        continue;
      }
      chosen.push_back(pick);
      const EmRiskEntry& entry = ranking[pick];
      if (rng.uniform() < 0.5) {
        faults.open_conductor(entry.conductor_index);
      } else {
        faults.degrade_conductor(entry.conductor_index, shape.degrade_factor);
      }
    }
    for (std::size_t c = 0;
         c < converter_faults_per_trial && baseline.converters > 0; ++c) {
      faults.converter_stuck_off(rng.uniform_index(baseline.converters));
    }
    for (std::size_t c = 0;
         c < shape.leakage_faults_per_trial && baseline.nodes > 0; ++c) {
      faults.leakage_to_ground(rng.uniform_index(baseline.nodes),
                               shape.leakage_resistance);
    }
    plan.push_back(
        PlannedScenario{trial, "MC#" + std::to_string(trial), std::move(faults)});
  }
  return plan;
}

ContingencyReport run_monte_carlo(const FaultTarget& target,
                                  const CampaignShape& shape,
                                  std::size_t converter_faults_per_trial) {
  VS_SPAN("core.contingency.monte_carlo");
  auto base = target.baseline();
  if (!base) return {};
  const auto plan = plan_monte_carlo(*base, shape, converter_faults_per_trial);
  ContingencyReport report = std::move(base->report);
  run_plan(target, shape, plan, report);
  return report;
}

ContingencyEngine::ContingencyEngine(const StudyContext& ctx,
                                     pdn::StackupConfig config)
    : ctx_(ctx), config_(std::move(config)) {
  config_.validate();
}

std::vector<EmRiskEntry> ContingencyEngine::rank_by_em_risk(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  return PdnTarget(ctx_, config_, layer_activities, options)
      .baseline()
      ->report.ranking;
}

ContingencyCase ContingencyEngine::evaluate_case(
    const pdn::FaultSet& faults,
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options, const std::string& label) const {
  return core::evaluate_case(
      PdnTarget(ctx_, config_, layer_activities, options), faults, options,
      label);
}

ContingencyReport ContingencyEngine::run_n_minus_1(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  return core::run_n_minus_1(
      PdnTarget(ctx_, config_, layer_activities, options), options);
}

std::vector<PlannedScenario> ContingencyEngine::plan_monte_carlo(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  return core::plan_monte_carlo(
      *PdnTarget(ctx_, config_, layer_activities, options).baseline(),
      options, options.converter_faults_per_trial);
}

ContingencyReport ContingencyEngine::run_monte_carlo(
    const std::vector<double>& layer_activities,
    const ContingencyOptions& options) const {
  return core::run_monte_carlo(
      PdnTarget(ctx_, config_, layer_activities, options), options,
      options.converter_faults_per_trial);
}

}  // namespace vstack::core
