// Physics oracle for PDN DC solves: Kirchhoff's current law at every node
// and the exact power balance, both recomputed here from the solved
// voltages and the network's own conductor, converter and load stamps.
// They hold for any correct assembly of the resistive network, intact or
// fault-damaged, so a violation is an assembly or extraction bug.
//
// Power balance: the package supply and the ideal converter references are
// the only sources.  Every conductor group dissipates G * dV^2, every
// converter j^2 * R_series (the midpoint converter is an ideal 2:1 stage
// plus R_series, so that is all it loses), and the loads absorb the rest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "pdn/fault.h"
#include "pdn/solver.h"
#include "power/core_power_model.h"

namespace vstack::pdn {
namespace {

constexpr double kRelTol = 1e-6;

const floorplan::Floorplan& fp() {
  static const floorplan::Floorplan f = floorplan::paper_layer_floorplan();
  return f;
}

StackupConfig four_layers(PdnTopology topology, ConverterReference reference) {
  StackupConfig cfg;
  cfg.topology = topology;
  cfg.converter_reference = reference;
  cfg.layer_count = 4;
  cfg.grid_nx = cfg.grid_ny = 8;
  return cfg;
}

std::size_t first_group(const PdnNetwork& net, ConductorKind kind) {
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    if (net.conductors()[i].kind == kind) return i;
  }
  ADD_FAILURE() << "no conductor group of kind " << conductor_kind_name(kind);
  return 0;
}

/// One open strap, one degraded ground bump, a leakage short mid-stack and,
/// on stacks with converters, one stuck-off phase.  None of them cuts a
/// node off from every fixed potential.
FaultSet damage(const PdnNetwork& net) {
  FaultSet faults;
  faults.open_conductor(first_group(net, ConductorKind::GridStrap))
      .degrade_conductor(first_group(net, ConductorKind::C4Gnd), 8.0)
      .leakage_to_ground(net.vdd_node(1, 27), 10.0);
  if (!net.converters().empty()) faults.converter_stuck_off(0);
  return faults;
}

void check_conservation(const PdnModel& model, const std::string& label) {
  SCOPED_TRACE(label);
  const PdnNetwork& net = model.network();
  ASSERT_TRUE(find_floating_islands(net).islands.empty());
  const auto cpm = power::CorePowerModel::cortex_a9_like();
  const auto loads = net.build_loads(cpm, {1.0, 0.4, 0.9, 0.2});
  // A tight solve, so what is left is the stamps' error, not CG's.
  PdnSolveOptions tight;
  tight.iterative.relative_tolerance = 1e-12;
  const PdnSolution sol = model.solve(loads, tight);
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;

  const double vdd = model.config().vdd;
  const double v_supply = sol.supply_voltage;
  const auto voltage = [&](std::size_t node) {
    if (node == kFixedSupply) return v_supply;
    if (node == kFixedGround) return 0.0;
    return sol.node_voltages[node];
  };
  // Net current leaving each free node through the elements attached to
  // it, and the magnitude of what flows through the node.
  std::vector<double> leaving(net.node_count(), 0.0);
  std::vector<double> through(net.node_count(), 0.0);
  const auto flow = [&](std::size_t node, double current) {
    if (node == kFixedSupply || node == kFixedGround) return;
    leaving[node] += current;
    through[node] += std::abs(current);
  };

  double supply_power = 0.0;
  double conductor_loss = 0.0;
  for (const ConductorGroup& group : net.conductors()) {
    if (group.count == 0) continue;
    const double g =
        static_cast<double>(group.count) / group.unit_resistance;
    const double dv = voltage(group.node_a) - voltage(group.node_b);
    flow(group.node_a, g * dv);
    flow(group.node_b, -g * dv);
    conductor_loss += g * dv * dv;
    // g * dv flows from node_a to node_b.
    if (group.node_a == kFixedSupply) supply_power += v_supply * g * dv;
    if (group.node_b == kFixedSupply) supply_power -= v_supply * g * dv;
  }

  const bool ideal =
      model.config().converter_reference == ConverterReference::IdealRails;
  double reference_power = 0.0;
  double converter_loss = 0.0;
  for (const ConverterInstance& conv : net.converters()) {
    if (!conv.enabled) continue;
    const double reference =
        ideal ? static_cast<double>(conv.level) * vdd
              : 0.5 * (voltage(conv.top) + voltage(conv.bottom));
    const double j = (reference - voltage(conv.out)) / conv.r_series;
    flow(conv.out, -j);
    if (ideal) {
      reference_power += reference * j;
    } else {
      flow(conv.top, 0.5 * j);
      flow(conv.bottom, 0.5 * j);
    }
    converter_loss += j * j * conv.r_series;
  }

  double load_power = 0.0;
  double load_current = 0.0;
  for (const LoadInjection& load : loads) {
    flow(load.vdd_node, load.current);
    flow(load.gnd_node, -load.current);
    load_power +=
        load.current * (voltage(load.vdd_node) - voltage(load.gnd_node));
    load_current += load.current;
  }
  ASSERT_GT(load_current, 0.0);

  // KCL, node by node, relative to the current through the node.  The
  // floor for near-idle nodes, a thousandth of the total load current, is
  // still far below one cell's load or one converter's current.
  double worst_kcl = 0.0;
  for (std::size_t node = 0; node < net.node_count(); ++node) {
    const double scale = std::max(through[node], 1e-3 * load_current);
    worst_kcl = std::max(worst_kcl, std::abs(leaving[node]) / scale);
  }
  EXPECT_LT(worst_kcl, kRelTol);

  const double sources = supply_power + reference_power;
  const double sinks = load_power + conductor_loss + converter_loss;
  EXPECT_GT(supply_power, 0.0);
  EXPECT_NEAR(sources, sinks, kRelTol * sources);
  EXPECT_NEAR(sol.supply_power, supply_power, kRelTol * supply_power);
  EXPECT_NEAR(sol.load_power, load_power, kRelTol * load_power);
  if (!net.converters().empty()) {
    EXPECT_GT(converter_loss, 0.0);
  }
}

void check_intact_and_damaged(const StackupConfig& config) {
  PdnModel model(config, fp());
  check_conservation(model, "intact");
  damage(model.network()).apply_to(model.network_mutable());
  check_conservation(model, "damaged");
}

TEST(PdnConservation, RegularStack) {
  check_intact_and_damaged(
      four_layers(PdnTopology::Regular3d, ConverterReference::IdealRails));
}

TEST(PdnConservation, StackedIdealRails) {
  check_intact_and_damaged(four_layers(PdnTopology::VoltageStacked,
                                       ConverterReference::IdealRails));
}

TEST(PdnConservation, StackedAdjacentRails) {
  check_intact_and_damaged(four_layers(PdnTopology::VoltageStacked,
                                       ConverterReference::AdjacentRails));
}

}  // namespace
}  // namespace vstack::pdn
