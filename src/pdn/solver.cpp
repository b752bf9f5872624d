#include "pdn/solver.h"

#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "pdn/fault.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn {

namespace {

bool is_fixed(std::size_t node) {
  return node == kFixedSupply || node == kFixedGround;
}

double fixed_potential(std::size_t node, double supply_voltage) {
  return node == kFixedSupply ? supply_voltage : 0.0;
}

/// Weak pin [S] grounding each floating-island node to its nominal rail
/// potential.  Strong enough to keep the matrix comfortably nonsingular;
/// weak enough that any load current strayed onto an island produces a
/// glaring (and flagged) voltage deviation rather than hiding.
constexpr double kIslandPinConductance = 1.0;

}  // namespace

PdnModel::PdnModel(const StackupConfig& config,
                   const floorplan::Floorplan& floorplan)
    : network_(config, floorplan) {}

PdnSolution PdnModel::solve(const std::vector<LoadInjection>& loads,
                            const PdnSolveOptions& options) const {
  VS_SPAN("pdn.dc.solve");
  static const telemetry::Counter t_dc_solves("pdn.dc.solves");
  t_dc_solves.add();
  const auto& cfg = config();
  std::vector<double> r_series(network_.converters().size());
  for (std::size_t c = 0; c < r_series.size(); ++c) {
    r_series[c] = network_.converters()[c].r_series;
  }

  PdnSolution solution = solve_once(loads, r_series, options);

  if (solution.solve_ok && cfg.is_voltage_stacked() &&
      cfg.converter.control == sc::ControlPolicy::ClosedLoop) {
    // Closed-loop converters modulate f_sw (and hence R_SSL) with load:
    // iterate the series resistances to a fixed point.
    const sc::ScCompactModel model(cfg.converter);
    for (std::size_t it = 0; it < options.control_iterations; ++it) {
      for (std::size_t c = 0; c < r_series.size(); ++c) {
        if (!network_.converters()[c].enabled) continue;
        const double f =
            model.switching_frequency(solution.converter_currents[c]);
        r_series[c] = model.r_series(f);
      }
      PdnSolution refined = solve_once(loads, r_series, options);
      if (!refined.solve_ok) break;  // keep the last good fixed-point iterate
      solution = std::move(refined);
    }
  }
  return solution;
}

PdnSolution PdnModel::solve_cold(const std::vector<LoadInjection>& loads,
                                 const PdnSolveOptions& options) const {
  last_solution_.clear();  // what a fresh model holds before its first solve
  return solve(loads, options);
}

PdnSolution PdnModel::solve_activities(
    const power::CorePowerModel& model,
    const std::vector<double>& layer_activities,
    const PdnSolveOptions& options) const {
  return solve(network_.build_loads(model, layer_activities), options);
}

PdnSolution PdnModel::solve_once(const std::vector<LoadInjection>& loads,
                                 const std::vector<double>& converter_r_series,
                                 const PdnSolveOptions& options) const {
  const auto& cfg = config();
  const std::size_t n = network_.node_count();
  const double v_supply = cfg.supply_voltage();
  const bool ideal_reference =
      cfg.converter_reference == ConverterReference::IdealRails;
  VS_REQUIRE(converter_r_series.size() == network_.converters().size(),
             "converter resistance vector size mismatch");

  // (Re)assemble when the topology epoch or converter resistances changed.
  if (!cache_ || cache_->epoch != network_.topology_epoch() ||
      cache_->r_series != converter_r_series) {
    la::CooBuilder builder(n);
    la::Vector base_rhs(n, 0.0);

    for (const auto& group : network_.conductors()) {
      if (group.count == 0) continue;  // fully opened by a fault
      const double g =
          static_cast<double>(group.count) / group.unit_resistance;
      const bool a_fixed = is_fixed(group.node_a);
      const bool b_fixed = is_fixed(group.node_b);
      VS_REQUIRE(!(a_fixed && b_fixed), "conductor between two fixed rails");
      if (!a_fixed && !b_fixed) {
        builder.add(group.node_a, group.node_a, g);
        builder.add(group.node_b, group.node_b, g);
        builder.add(group.node_a, group.node_b, -g);
        builder.add(group.node_b, group.node_a, -g);
      } else {
        const std::size_t free_node = a_fixed ? group.node_b : group.node_a;
        const std::size_t fixed_node = a_fixed ? group.node_a : group.node_b;
        builder.add(free_node, free_node, g);
        base_rhs[free_node] += g * fixed_potential(fixed_node, v_supply);
      }
    }

    for (std::size_t c = 0; c < network_.converters().size(); ++c) {
      const auto& conv = network_.converters()[c];
      if (!conv.enabled) continue;  // stuck-off fault
      const double g = 1.0 / converter_r_series[c];
      if (ideal_reference) {
        // Stiff reference: resistor R_SERIES from the output rail to its
        // nominal potential level * vdd.
        builder.add(conv.out, conv.out, g);
        base_rhs[conv.out] += g * static_cast<double>(conv.level) * cfg.vdd;
      } else {
        // Coupled midpoint: (1/R) v v^T with v = (1/2, 1/2, -1) on
        // (top, bottom, out).
        const std::size_t idx[3] = {conv.top, conv.bottom, conv.out};
        const double v[3] = {0.5, 0.5, -1.0};
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j < 3; ++j) {
            builder.add(idx[i], idx[j], g * v[i] * v[j]);
          }
        }
      }
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

  la::Vector rhs = cache_->base_rhs;
  PdnSolution sol;
  sol.supply_voltage = v_supply;
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

  // Fast path: warm-started CG with the cached preconditioner.  On a stall
  // (damaged network), escalate through the solver handle's degradation
  // ladder from a cold start and keep the full attempt trail.
  sol.node_voltages =
      (last_solution_.size() == n) ? last_solution_ : la::Vector(n, 0.0);
  sol.report = cache_->solver->iterate_once(rhs, sol.node_voltages,
                                            options.iterative);
  if (!sol.report.converged) {
    la::SolveAttempt first{"cg+cached-precond", false, sol.report.iterations,
                           sol.report.residual_norm};
    sol.node_voltages.assign(n, 0.0);
    sol.report =
        cache_->solver->solve(rhs, sol.node_voltages, options.iterative);
    sol.report.attempts.insert(sol.report.attempts.begin(), first);
  }
  if (!sol.report.converged) {
    sol.solve_ok = false;
    sol.diagnostic =
        "PDN solve failed: " + (sol.report.diagnostic.empty()
                                    ? std::string("did not converge")
                                    : sol.report.diagnostic);
    last_solution_.clear();
    return sol;  // metrics stay zeroed; node_voltages are finite
  }
  sol.solve_ok = true;
  if (sol.floating_load_current > 0.0) {
    sol.diagnostic = "structurally infeasible: loads inject " +
                     std::to_string(sol.floating_load_current) +
                     " A into floating island(s) with no return path";
  }
  last_solution_ = sol.node_voltages;

  const auto voltage = [&](std::size_t node) {
    return is_fixed(node) ? fixed_potential(node, v_supply)
                          : sol.node_voltages[node];
  };

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
      const double span = voltage(network_.vdd_node(l, cell)) -
                          voltage(network_.gnd_node(l, cell));
      const double droop = cfg.vdd - span;
      map.values[cell] = droop;
      worst_droop = std::max(worst_droop, droop);
      worst_overshoot = std::max(worst_overshoot, -droop);
    }
  }
  sol.max_ir_drop = std::max(worst_droop, 0.0);
  sol.max_ir_drop_fraction = sol.max_ir_drop / cfg.vdd;
  sol.max_overshoot_fraction = std::max(worst_overshoot, 0.0) / cfg.vdd;

  // VoltSpot's voltage-noise metric: worst deviation of any grid node from
  // its nominal rail potential.  Nominal rails: regular topology has every
  // Vdd net at vdd and every Gnd net at 0; the stack has layer l's Gnd net
  // at l * vdd and its Vdd net at (l+1) * vdd.
  double worst_deviation = 0.0;
  for (std::size_t l = 0; l < cfg.layer_count; ++l) {
    const double nominal_gnd =
        cfg.is_voltage_stacked() ? static_cast<double>(l) * cfg.vdd : 0.0;
    const double nominal_vdd = nominal_gnd + cfg.vdd;
    for (std::size_t cell = 0; cell < cells; ++cell) {
      worst_deviation = std::max(
          worst_deviation,
          std::abs(voltage(network_.vdd_node(l, cell)) - nominal_vdd));
      worst_deviation = std::max(
          worst_deviation,
          std::abs(voltage(network_.gnd_node(l, cell)) - nominal_gnd));
    }
  }
  sol.max_node_deviation_fraction = worst_deviation / cfg.vdd;

  // Per-conductor currents for the EM study.
  const std::size_t grid_cells = cfg.grid_nx * cfg.grid_ny;
  const auto layer_of = [&](std::size_t node) -> unsigned {
    // Grid nodes start at index 2, ordered (layer, net, cell).
    return static_cast<unsigned>((node - 2) / (2 * grid_cells));
  };
  for (const auto& group : network_.conductors()) {
    if (group.count == 0) continue;  // fully opened by a fault
    const double per_unit = std::abs(
        (voltage(group.node_a) - voltage(group.node_b)) /
        group.unit_resistance);
    switch (group.kind) {
      case ConductorKind::C4Vdd:
      case ConductorKind::C4Gnd:
        for (std::size_t k = 0; k < group.count; ++k) {
          sol.c4_pad_currents.push_back(per_unit);
        }
        break;
      case ConductorKind::TsvVdd:
      case ConductorKind::TsvGnd:
      case ConductorKind::RecyclingTsv: {
        // Current crowding within the lumped cell: only ~tsv_crowding_share
        // TSVs effectively share the group's current; the rest are nearly
        // unstressed (they remain in the array as zero-current elements).
        const std::size_t sharing =
            std::min(group.count, cfg.params.tsv_crowding_share);
        const double hot_current =
            per_unit * static_cast<double>(group.count) /
            static_cast<double>(sharing);
        const unsigned interface = layer_of(group.node_a);
        for (std::size_t k = 0; k < group.count; ++k) {
          sol.tsv_currents.push_back(k < sharing ? hot_current : 0.0);
          sol.tsv_interface_of.push_back(interface);
        }
        break;
      }
      case ConductorKind::ThroughVia:
        // One bump plus (layer_count - 1) TSV segments per via, all at the
        // via's current; segment s crosses interface s.
        for (std::size_t k = 0; k < group.count; ++k) {
          sol.c4_pad_currents.push_back(per_unit);
          for (std::size_t s = 0; s < group.em_segments; ++s) {
            sol.tsv_currents.push_back(per_unit);
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
      sol.supply_current = per_unit;
    }
  }
  sol.supply_power = sol.supply_current * v_supply;

  // Converter currents: j = (reference - V_out) / R, where the reference is
  // either the nominal rail potential or the solved adjacent-rail midpoint.
  sol.converter_currents.reserve(network_.converters().size());
  for (std::size_t c = 0; c < network_.converters().size(); ++c) {
    const auto& conv = network_.converters()[c];
    if (!conv.enabled) {
      sol.converter_currents.push_back(0.0);  // stuck-off phase
      continue;
    }
    const double reference =
        ideal_reference
            ? static_cast<double>(conv.level) * cfg.vdd
            : 0.5 * (voltage(conv.top) + voltage(conv.bottom));
    const double j = (reference - voltage(conv.out)) / converter_r_series[c];
    sol.converter_currents.push_back(j);
    sol.max_converter_current =
        std::max(sol.max_converter_current, std::abs(j));
  }
  sol.converter_limit_ok = sol.max_converter_current <=
                           cfg.converter.max_load_current + 1e-12;

  for (const auto& load : loads) {
    sol.load_power +=
        load.current * (voltage(load.vdd_node) - voltage(load.gnd_node));
  }
  sol.resistive_efficiency =
      sol.supply_power > 0.0 ? sol.load_power / sol.supply_power : 0.0;
  return sol;
}

}  // namespace vstack::pdn
