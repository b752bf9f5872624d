// Benchmark-format writer: normalized-form round-trip bit identity, value
// fidelity through %.17g, and the pdn::PdnModel bridge (including the
// converter linearization that requires a solved operating point).
#include "pgio/export.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "floorplan/floorplan.h"
#include "pgio/grid.h"
#include "pgio/reader.h"

namespace vstack::pgio {
namespace {

std::string fixture(const std::string& name) {
  return std::string(VSTACK_PGIO_TEST_DATA) + "/" + name;
}

TEST(ExportNetlist, RoundTripIsBitIdentical) {
  for (const char* name : {"ladder4", "mesh3x3", "twonet_vias"}) {
    const PgNetlist original =
        read_netlist_file(fixture(std::string(name) + ".spice"));
    const std::string first = write_netlist(original);
    const PgNetlist reparsed = read_netlist_text(first, "round-trip");
    const std::string second = write_netlist(reparsed);
    EXPECT_EQ(first, second) << name;
    EXPECT_EQ(reparsed.node_count(), original.node_count()) << name;
    EXPECT_EQ(reparsed.element_count(), original.element_count()) << name;
  }
}

TEST(ExportNetlist, ValuesSurviveExactly) {
  PgNetlist n;
  n.source = "values";
  const std::uint32_t a = n.nodes.intern("a");
  const std::uint32_t b = n.nodes.intern("b");
  // Doubles that do not have short decimal forms.
  n.resistors.push_back({a, b, 1, 0.1});
  n.resistors.push_back({a, kGroundNode, 2, 1.0 / 3.0});
  n.loads.push_back({b, kGroundNode, 3, 2.5e-13});
  n.pads.push_back({a, kGroundNode, 4, 0.9999999999999999});
  const PgNetlist back = read_netlist_text(write_netlist(n), "back");
  ASSERT_EQ(back.resistors.size(), 2u);
  EXPECT_EQ(back.resistors[0].value, 0.1);
  EXPECT_EQ(back.resistors[1].value, 1.0 / 3.0);
  EXPECT_EQ(back.loads[0].value, 2.5e-13);
  EXPECT_EQ(back.pads[0].value, 0.9999999999999999);
}

TEST(ExportNetlist, SolutionIsPreservedThroughExport) {
  // An exported grid must solve to the same voltages as the original.
  const PgNetlist original = read_netlist_file(fixture("mesh3x3.spice"));
  const ImportedGrid grid_a(original);
  const PgNetlist reparsed =
      read_netlist_text(write_netlist(original), "re-export");
  const ImportedGrid grid_b(reparsed);
  const GridSolution sa = grid_a.solve();
  const GridSolution sb = grid_b.solve();
  ASSERT_TRUE(sa.solve_ok && sb.solve_ok);
  for (std::uint32_t id = 0; id < original.node_count(); ++id) {
    const std::string name(original.nodes.name(id));
    double va = 0.0, vb = 0.0;
    ASSERT_TRUE(grid_a.node_voltage(sa, name, &va));
    ASSERT_TRUE(grid_b.node_voltage(sb, name, &vb));
    EXPECT_NEAR(va, vb, 1e-12) << name;
  }
}

TEST(FromPdnModel, RegularStackExportsAndResolves) {
  pdn::StackupConfig cfg;
  cfg.layer_count = 2;
  cfg.grid_nx = cfg.grid_ny = 4;
  const pdn::PdnModel model(cfg, floorplan::paper_layer_floorplan());
  std::vector<pdn::LoadInjection> loads;
  for (std::size_t layer = 0; layer < cfg.layer_count; ++layer) {
    loads.push_back({model.network().vdd_node(layer, 5),
                     model.network().gnd_node(layer, 5), 0.2});
  }
  const pdn::PdnSolution reference = model.solve(loads);
  ASSERT_TRUE(reference.solve_ok) << reference.diagnostic;

  const PgNetlist exported = from_pdn_model(model, loads);
  const ImportedGrid grid(exported);
  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;

  for (std::size_t layer = 0; layer < cfg.layer_count; ++layer) {
    for (std::size_t cell : {std::size_t{0}, std::size_t{5}}) {
      const std::string name = std::string("n")
                                   .append(std::to_string(2 * layer + 2))
                                   .append("_")
                                   .append(std::to_string(cell % cfg.grid_nx))
                                   .append("_")
                                   .append(std::to_string(cell / cfg.grid_nx));
      double v = 0.0;
      ASSERT_TRUE(grid.node_voltage(sol, name, &v)) << name;
      EXPECT_NEAR(
          v, reference.node_voltages[model.network().vdd_node(layer, cell)],
          1e-6)
          << name;
    }
  }
}

TEST(FromPdnModel, ConvertersRequireAnOperatingPoint) {
  pdn::StackupConfig cfg;
  cfg.topology = pdn::PdnTopology::VoltageStacked;
  cfg.layer_count = 2;
  cfg.grid_nx = cfg.grid_ny = 4;
  const pdn::PdnModel model(cfg, floorplan::paper_layer_floorplan());
  ASSERT_FALSE(model.network().converters().empty());
  std::vector<pdn::LoadInjection> loads;
  for (std::size_t layer = 0; layer < cfg.layer_count; ++layer) {
    loads.push_back({model.network().vdd_node(layer, 0),
                     model.network().gnd_node(layer, 0), 0.1});
  }
  EXPECT_THROW(from_pdn_model(model, loads), Error);

  const pdn::PdnSolution op = model.solve(loads);
  ASSERT_TRUE(op.solve_ok) << op.diagnostic;
  const PgNetlist exported = from_pdn_model(model, loads, &op);
  // Converters become paired current injections, never R/V cards.
  EXPECT_FALSE(exported.loads.empty());
  const ImportedGrid grid(exported);
  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  // The linearized netlist reproduces the operating point: spot-check the
  // stacked rail potentials on layer 1.
  for (std::size_t cell : {std::size_t{0}, std::size_t{7}}) {
    const std::string name =
        "n4_" + std::to_string(cell % cfg.grid_nx) + "_" +
        std::to_string(cell / cfg.grid_nx);
    double v = 0.0;
    ASSERT_TRUE(grid.node_voltage(sol, name, &v)) << name;
    EXPECT_NEAR(v, op.node_voltages[model.network().vdd_node(1, cell)], 1e-5)
        << name;
  }
}

}  // namespace
}  // namespace vstack::pgio
