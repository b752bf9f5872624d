#include "pdn/solver.h"

#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "pdn/fault.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn {

namespace {

/// Weak pin [S] grounding each floating-island node to its nominal rail
/// potential.  Strong enough to keep the matrix comfortably nonsingular;
/// weak enough that any load current strayed onto an island produces a
/// glaring (and flagged) voltage deviation rather than hiding.
constexpr double kIslandPinConductance = 1.0;

const telemetry::Counter t_dc_solves("pdn.dc.solves");

}  // namespace

PdnModel::PdnModel(const StackupConfig& config,
                   const floorplan::Floorplan& floorplan)
    : network_(config, floorplan) {}

std::vector<double> PdnModel::nominal_r_series() const {
  std::vector<double> r_series(network_.converters().size());
  for (std::size_t c = 0; c < r_series.size(); ++c) {
    r_series[c] = network_.converters()[c].r_series;
  }
  return r_series;
}

PdnSolution PdnModel::solve(const std::vector<LoadInjection>& loads,
                            const PdnSolveOptions& options) const {
  VS_SPAN("pdn.dc.solve");
  t_dc_solves.add();
  const std::vector<double> r_series = nominal_r_series();
  bind(r_series);  // a re-assembly clears last_solution_
  PdnSolution solution = solve_once(loads, r_series, last_solution_, options);
  refine(loads, r_series, solution, options);
  return solution;
}

PdnSolution PdnModel::solve_cold(const std::vector<LoadInjection>& loads,
                                 const PdnSolveOptions& options) const {
  last_solution_.clear();  // what a fresh model holds before its first solve
  return solve(loads, options);
}

std::vector<PdnSolution> PdnModel::solve_cold(
    const std::vector<std::vector<LoadInjection>>& load_sets,
    const PdnSolveOptions& options) const {
  VS_SPAN("pdn.dc.solve");
  t_dc_solves.add(static_cast<double>(load_sets.size()));
  const std::vector<double> r_series = nominal_r_series();
  bind(r_series);
  std::vector<PdnSolution> solutions(load_sets.size());
  std::vector<la::Vector> rhs;
  std::vector<la::Vector> x(load_sets.size());  // cold: zero guesses
  rhs.reserve(load_sets.size());
  for (std::size_t i = 0; i < load_sets.size(); ++i) {
    rhs.push_back(load_rhs(load_sets[i], solutions[i]));
  }
  std::vector<la::SolveReport> reports =
      cache_->solver->solve(rhs, x, options.iterative);
  rhs.clear();
  for (std::size_t i = 0; i < load_sets.size(); ++i) {
    PdnSolution& sol = solutions[i];
    sol.node_voltages = std::move(x[i]);
    sol.report = std::move(reports[i]);
    finish(load_sets[i], r_series, sol);
    refine(load_sets[i], r_series, sol, options);
  }
  return solutions;
}

PdnSolution PdnModel::solve_activities(
    const power::CorePowerModel& model,
    const std::vector<double>& layer_activities,
    const PdnSolveOptions& options) const {
  return solve(network_.build_loads(model, layer_activities), options);
}

void PdnModel::refine(const std::vector<LoadInjection>& loads,
                      std::vector<double> r_series, PdnSolution& solution,
                      const PdnSolveOptions& options) const {
  const auto& cfg = config();
  if (!solution.solve_ok || !cfg.is_voltage_stacked() ||
      cfg.converter.control != sc::ControlPolicy::ClosedLoop) {
    return;
  }
  // Closed-loop converters modulate f_sw (and hence R_SSL) with load:
  // iterate the series resistances to a fixed point.  A pass starts from
  // the iterate before it when its resistances are unchanged, else (a
  // re-assembled system) from zero.
  const sc::ScCompactModel model(cfg.converter);
  for (std::size_t it = 0; it < kClosedLoopRefinements; ++it) {
    std::vector<double> next = r_series;
    for (std::size_t c = 0; c < next.size(); ++c) {
      if (!network_.converters()[c].enabled) continue;
      const double f =
          model.switching_frequency(solution.converter_currents[c]);
      next[c] = model.r_series(f);
    }
    const la::Vector guess =
        next == r_series ? solution.node_voltages : la::Vector{};
    bind(next);
    PdnSolution refined = solve_once(loads, next, guess, options);
    if (!refined.solve_ok) break;  // keep the last good fixed-point iterate
    solution = std::move(refined);
    r_series = std::move(next);
  }
}

void PdnModel::bind(const std::vector<double>& converter_r_series) const {
  const auto& cfg = config();
  const std::size_t n = network_.node_count();
  VS_REQUIRE(converter_r_series.size() == network_.converters().size(),
             "converter resistance vector size mismatch");

  // (Re)assemble when the topology epoch or converter resistances changed.
  if (!cache_ || cache_->epoch != network_.topology_epoch() ||
      cache_->r_series != converter_r_series) {
    VS_SPAN("pdn.dc.assemble");
    la::CooBuilder builder(n);
    la::Vector base_rhs(n, 0.0);

    const FixedRails rails{cfg.supply_voltage()};
    for (const auto& group : network_.conductors()) {
      if (group.count == 0) continue;  // fully opened by a fault
      VS_REQUIRE(
          !(rails.is_fixed(group.node_a) && rails.is_fixed(group.node_b)),
          "conductor between two fixed rails");
      stamp_conductance(builder, &base_rhs, group.node_a, group.node_b,
                        group.conductance(), rails);
    }
    for (std::size_t c = 0; c < network_.converters().size(); ++c) {
      const auto& conv = network_.converters()[c];
      if (!conv.enabled) continue;  // stuck-off fault
      stamp_converter(builder, &base_rhs, conv, 1.0 / converter_r_series[c],
                      cfg);
    }

    auto cache = std::make_unique<CachedSystem>();

    // Ground any subgraph that fault application cut off from every fixed
    // potential: a weak pin to the nominal rail level keeps the matrix
    // nonsingular, and the island map feeds the feasibility diagnostic.
    const IslandReport islands = find_floating_islands(network_);
    cache->node_floating.assign(n, 0);
    cache->island_count = islands.islands.size();
    cache->floating_node_count = islands.floating_node_count();
    for (const auto& island : islands.islands) {
      for (const std::size_t node : island) {
        builder.add(node, node, kIslandPinConductance);
        base_rhs[node] +=
            kIslandPinConductance * network_.nominal_potential(node);
        cache->node_floating[node] = 1;
      }
    }
    if (cache->island_count > 0) {
      VS_LOG_WARN("PDN has " << cache->island_count << " floating island(s) ("
                  << cache->floating_node_count
                  << " nodes); grounding to nominal rails");
    }

    cache->epoch = network_.topology_epoch();
    cache->r_series = converter_r_series;
    cache->matrix = builder.build();
    cache->base_rhs = std::move(base_rhs);
    // Bind the solver handle once the matrix has reached its final address
    // (inside the heap-allocated CachedSystem); it owns the preconditioner,
    // backend preparation, and Krylov workspace for every solve below.
    cache->solver = std::make_unique<la::Solver>(cache->matrix);
    cache_ = std::move(cache);
    last_solution_.clear();
  }
  // Staleness assertion: a topology mutation that failed to bump the epoch
  // (or a cache bypassing the key) would silently reuse a wrong matrix.
  VS_REQUIRE(cache_->epoch == network_.topology_epoch() &&
                 cache_->matrix.size() == n,
             "stale PDN system cache (topology mutated without epoch bump)");
}

la::Vector PdnModel::load_rhs(const std::vector<LoadInjection>& loads,
                              PdnSolution& sol) const {
  la::Vector rhs = cache_->base_rhs;
  sol.supply_voltage = config().supply_voltage();
  sol.floating_island_count = cache_->island_count;
  sol.floating_node_count = cache_->floating_node_count;
  for (const auto& load : loads) {
    rhs[load.vdd_node] -= load.current;
    rhs[load.gnd_node] += load.current;
    if (cache_->node_floating[load.vdd_node] ||
        cache_->node_floating[load.gnd_node]) {
      sol.floating_load_current += load.current;
    }
  }
  return rhs;
}

PdnSolution PdnModel::solve_once(const std::vector<LoadInjection>& loads,
                                 const std::vector<double>& converter_r_series,
                                 const la::Vector& guess,
                                 const PdnSolveOptions& options) const {
  PdnSolution sol;
  const la::Vector rhs = load_rhs(loads, sol);
  // CG with the cached preconditioner from `guess` (zero when empty); a
  // damaged network that stalls it falls back to dense LU inside the
  // solver handle.
  sol.node_voltages = guess;
  sol.report = cache_->solver->solve(rhs, sol.node_voltages, options.iterative);
  finish(loads, converter_r_series, sol);
  return sol;
}

void PdnModel::finish(const std::vector<LoadInjection>& loads,
                      const std::vector<double>& converter_r_series,
                      PdnSolution& sol) const {
  const auto& cfg = config();
  const double v_supply = cfg.supply_voltage();
  if (!sol.report.converged) {
    sol.solve_ok = false;
    sol.diagnostic =
        "PDN solve failed: " + (sol.report.diagnostic.empty()
                                    ? std::string("did not converge")
                                    : sol.report.diagnostic);
    last_solution_.clear();
    return;  // metrics stay zeroed; node_voltages are finite
  }
  sol.solve_ok = true;
  if (sol.floating_load_current > 0.0) {
    sol.diagnostic = "structurally infeasible: loads inject " +
                     std::to_string(sol.floating_load_current) +
                     " A into floating island(s) with no return path";
  }
  last_solution_ = sol.node_voltages;

  // Per-layer droop maps and extrema.
  const std::size_t cells = cfg.grid_nx * cfg.grid_ny;
  sol.layer_droop.resize(cfg.layer_count);
  double worst_droop = -1e300, worst_overshoot = -1e300;
  for (std::size_t l = 0; l < cfg.layer_count; ++l) {
    auto& map = sol.layer_droop[l];
    map.nx = cfg.grid_nx;
    map.ny = cfg.grid_ny;
    map.values.assign(cells, 0.0);
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const double span = sol.voltage(network_.vdd_node(l, cell)) -
                          sol.voltage(network_.gnd_node(l, cell));
      const double droop = cfg.vdd - span;
      map.values[cell] = droop;
      worst_droop = std::max(worst_droop, droop);
      worst_overshoot = std::max(worst_overshoot, -droop);
    }
  }
  sol.max_ir_drop = std::max(worst_droop, 0.0);
  sol.max_ir_drop_fraction = sol.max_ir_drop / cfg.vdd;
  sol.max_overshoot_fraction = std::max(worst_overshoot, 0.0) / cfg.vdd;

  sol.max_node_deviation_fraction =
      network_.max_node_deviation_fraction(sol.node_voltages);

  // Per-conductor currents for the EM study.  A TSV group's zero-current
  // conductors (current crowding) stay in the array.
  for (const auto& group : network_.conductors()) {
    if (group.count == 0) continue;  // fully opened by a fault
    const ConductorStress stress =
        conductor_stress(group, sol.voltage(group.node_a),
                         sol.voltage(group.node_b), cfg.params);
    switch (group.kind) {
      case ConductorKind::C4Vdd:
      case ConductorKind::C4Gnd:
        for (std::size_t k = 0; k < group.count; ++k) {
          sol.c4_pad_currents.push_back(stress.current);
        }
        break;
      case ConductorKind::TsvVdd:
      case ConductorKind::TsvGnd:
      case ConductorKind::RecyclingTsv: {
        const auto interface =
            static_cast<unsigned>(network_.locate(group.node_a).layer);
        for (std::size_t k = 0; k < group.count; ++k) {
          sol.tsv_currents.push_back(k < stress.carriers ? stress.current
                                                         : 0.0);
          sol.tsv_interface_of.push_back(interface);
        }
        break;
      }
      case ConductorKind::ThroughVia:
        // One bump plus (layer_count - 1) TSV segments per via, all at the
        // via's current; segment s crosses interface s.
        for (std::size_t k = 0; k < group.count; ++k) {
          sol.c4_pad_currents.push_back(stress.current);
          for (std::size_t s = 0; s < group.em_segments; ++s) {
            sol.tsv_currents.push_back(stress.current);
            sol.tsv_interface_of.push_back(static_cast<unsigned>(s));
          }
        }
        break;
      case ConductorKind::GridStrap:
      case ConductorKind::PackageVdd:
      case ConductorKind::PackageGnd:
      case ConductorKind::Leakage:
        break;  // not part of the pad/TSV EM arrays
    }
    if (group.kind == ConductorKind::PackageVdd) {
      sol.supply_current = stress.current;
    }
  }
  sol.supply_power = sol.supply_current * v_supply;

  // Converter currents: j = (reference - V_out) / R.
  sol.converter_currents.reserve(network_.converters().size());
  for (std::size_t c = 0; c < network_.converters().size(); ++c) {
    const auto& conv = network_.converters()[c];
    if (!conv.enabled) {
      sol.converter_currents.push_back(0.0);  // stuck-off phase
      continue;
    }
    const double reference = converter_reference(
        conv, cfg, sol.voltage(conv.top), sol.voltage(conv.bottom));
    const double j =
        (reference - sol.voltage(conv.out)) / converter_r_series[c];
    sol.converter_currents.push_back(j);
    sol.max_converter_current =
        std::max(sol.max_converter_current, std::abs(j));
  }
  sol.converter_limit_ok = sol.max_converter_current <=
                           cfg.converter.max_load_current + 1e-12;

  for (const auto& load : loads) {
    sol.load_power += load.current * (sol.voltage(load.vdd_node) -
                                      sol.voltage(load.gnd_node));
  }
  sol.resistive_efficiency =
      sol.supply_power > 0.0 ? sol.load_power / sol.supply_power : 0.0;
}

}  // namespace vstack::pdn
