// ImportedGrid semantics: short collapse, slot numbering, exact DC solves
// against the hand-solved fixtures, floating-island handling, fault
// mutators, and the cached-system/warm-start machinery.
#include "pgio/grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "pgio/reader.h"

namespace vstack::pgio {
namespace {

std::string fixture(const std::string& name) {
  return std::string(VSTACK_PGIO_TEST_DATA) + "/" + name;
}

double volts(const ImportedGrid& grid, const GridSolution& sol,
             const std::string& node) {
  double v = 0.0;
  EXPECT_TRUE(grid.node_voltage(sol, node, &v)) << node;
  return v;
}

TEST(ImportedGrid, LadderSolvesExactly) {
  const PgNetlist n = read_netlist_file(fixture("ladder4.spice"));
  const ImportedGrid grid(n);
  EXPECT_EQ(grid.unknown_count(), 3u);
  EXPECT_EQ(grid.fixed_count(), 2u);  // the pad and the ground net

  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  EXPECT_NEAR(volts(grid, sol, "n1_0_0"), 1.0, 1e-12);
  EXPECT_NEAR(volts(grid, sol, "n1_1_0"), 0.7, 1e-9);
  EXPECT_NEAR(volts(grid, sol, "n1_2_0"), 0.5, 1e-9);
  EXPECT_NEAR(volts(grid, sol, "n1_3_0"), 0.4, 1e-9);
  EXPECT_NEAR(volts(grid, sol, "0"), 0.0, 0.0);
  EXPECT_NEAR(sol.max_deviation_v, 0.6, 1e-9);
  EXPECT_NEAR(sol.max_deviation_fraction, 0.6, 1e-9);
  EXPECT_EQ(sol.worst_node, "n1_3_0");
  EXPECT_NEAR(sol.supply_current_a, 3.0, 1e-8);
  EXPECT_NEAR(sol.load_current_a, 3.0, 1e-12);
  EXPECT_EQ(sol.floating_islands, 0u);
}

TEST(ImportedGrid, ShortsCollapseToOneSlot) {
  const PgNetlist n = read_netlist_file(fixture("twonet_vias.spice"));
  const ImportedGrid grid(n);
  // All three short spellings (0-ohm R, 0 V V card, .shorts) collapse.
  EXPECT_EQ(grid.slot_of("n1_0_0"), grid.slot_of("n2_0_0"));
  EXPECT_EQ(grid.slot_of("n1_1_0"), grid.slot_of("n2_1_0"));
  EXPECT_EQ(grid.slot_of("n1_2_0"), grid.slot_of("n2_2_0"));
  EXPECT_NE(grid.slot_of("n1_1_0"), grid.slot_of("n1_2_0"));
  EXPECT_EQ(grid.slot_of("absent"), kNoSlot);

  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  EXPECT_NEAR(volts(grid, sol, "n1_1_0"), 0.95, 1e-9);
  EXPECT_NEAR(volts(grid, sol, "n2_2_0"), 0.90, 1e-9);
  EXPECT_NEAR(volts(grid, sol, "m1_1_0"), 1.70, 1e-9);
  EXPECT_NEAR(volts(grid, sol, "m1_2_0"), 1.60, 1e-9);
  // Deviation is normalized by the largest pad magnitude (1.8 V here).
  EXPECT_NEAR(sol.max_deviation_fraction, 0.2 / 1.8, 1e-9);
}

TEST(ImportedGrid, PadConflictsDetectedAfterCollapse) {
  // The reader only sees per-name duplicates; shorting two pads at
  // different potentials is a post-collapse conflict the grid must catch.
  const PgNetlist merged = read_netlist_text(
      "V1 a 0 1.0\nV2 b 0 1.2\nR1 a b 0\n.end\n");
  try {
    const ImportedGrid grid(merged);
    FAIL() << "conflicting shorted pads accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shorted to pad node"), std::string::npos) << what;
    EXPECT_NE(what.find("<netlist>:"), std::string::npos) << what;
  }

  const PgNetlist grounded =
      read_netlist_text("V1 a 0 1.0\n.shorts a gnd\n.end\n");
  EXPECT_THROW(ImportedGrid{grounded}, Error);

  // Equal-potential pads shorted together are fine (parallel pins).
  const PgNetlist dual =
      read_netlist_text("V1 a 0 1.0\nV2 b 0 1.0\nR1 a b 0\nR2 a c 1\n.end\n");
  const ImportedGrid grid(dual);
  EXPECT_EQ(grid.slot_of("a"), grid.slot_of("b"));
}

TEST(ImportedGrid, FloatingIslandIsPinnedAndReported) {
  const PgNetlist n = read_netlist_text(
      "V1 a 0 1.0\n"
      "R1 a b 1\n"
      "R2 c d 1\n"     // disconnected pair ...
      "I1 c 0 0.1\n"   // ... carrying load current
      ".end\n");
  const ImportedGrid grid(n);
  EXPECT_FALSE(grid.is_floating(grid.slot_of("b")));
  EXPECT_TRUE(grid.is_floating(grid.slot_of("c")));
  EXPECT_TRUE(grid.is_floating(grid.slot_of("d")));

  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;  // weak pin keeps it regular
  EXPECT_EQ(sol.floating_islands, 1u);
  EXPECT_EQ(sol.floating_nodes, 2u);
  EXPECT_NEAR(sol.floating_load_current_a, 0.1, 1e-12);
  // The anchored part is unloaded: b sits at the pad potential, and the
  // deviation metric ignores the floating slots' weak-pin artifacts.
  EXPECT_NEAR(volts(grid, sol, "b"), 1.0, 1e-9);
  EXPECT_NEAR(sol.max_deviation_v, 0.0, 1e-9);
}

TEST(ImportedGrid, OpenConductorStrandsDownstreamLoads) {
  const PgNetlist n = read_netlist_file(fixture("ladder4.spice"));
  ImportedGrid grid(n);
  const std::size_t epoch = grid.topology_epoch();
  grid.remove_conductor_units(1, 1);  // open n1_1_0 -- n1_2_0
  EXPECT_GT(grid.topology_epoch(), epoch);

  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  // n1_2_0 and n1_3_0 are now an orphaned island with 2 A stranded.
  EXPECT_EQ(sol.floating_islands, 1u);
  EXPECT_EQ(sol.floating_nodes, 2u);
  EXPECT_NEAR(sol.floating_load_current_a, 2.0, 1e-12);
  // The surviving segment still feeds its 1 A load exactly.
  EXPECT_NEAR(volts(grid, sol, "n1_1_0"), 0.9, 1e-9);
}

TEST(ImportedGrid, DegradeAndLeakageMutators) {
  const PgNetlist n = read_netlist_file(fixture("ladder4.spice"));
  ImportedGrid grid(n);
  grid.scale_conductor_resistance(0, 2.0);  // first segment: 0.1 -> 0.2
  GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  // Drops become 0.6/0.2/0.1: n1_1_0 = 0.4.
  EXPECT_NEAR(volts(grid, sol, "n1_1_0"), 0.4, 1e-9);

  // A hard leakage short drags its node toward ground.
  ImportedGrid leaky(n);
  const double before = volts(leaky, leaky.solve(), "n1_3_0");
  leaky.add_leakage_to_ground(leaky.slot_of("n1_3_0"), 0.05);
  sol = leaky.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  EXPECT_LT(volts(leaky, sol, "n1_3_0"), before);
}

TEST(ImportedGrid, LoadScalingIsLinear) {
  const PgNetlist n = read_netlist_file(fixture("ladder4.spice"));
  const ImportedGrid grid(n);
  const GridSolution s1 = grid.solve();
  const GridSolution s2 = grid.solve_scaled(2.0);
  ASSERT_TRUE(s1.solve_ok && s2.solve_ok);
  EXPECT_NEAR(s2.max_deviation_v, 2.0 * s1.max_deviation_v, 1e-8);
  EXPECT_NEAR(s2.load_current_a, 2.0 * s1.load_current_a, 1e-12);
  EXPECT_NEAR(volts(grid, s2, "n1_3_0"), 1.0 - 1.2, 1e-8);
}

TEST(ImportedGrid, AllFixedGridIsTrivial) {
  const PgNetlist n = read_netlist_text("V1 a 0 1.0\nR1 a 0 10\n.end\n");
  const ImportedGrid grid(n);
  EXPECT_EQ(grid.unknown_count(), 0u);
  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok);
  EXPECT_NEAR(sol.supply_current_a, 0.1, 1e-12);
}

TEST(ImportedGrid, CopyIsIndependent) {
  const PgNetlist n = read_netlist_file(fixture("ladder4.spice"));
  const ImportedGrid base(n);
  ImportedGrid copy(base);
  copy.remove_conductor_units(0, 1);
  EXPECT_EQ(base.conductors()[0].count, 1u);
  EXPECT_EQ(copy.conductors()[0].count, 0u);
  const GridSolution sol = base.solve();
  ASSERT_TRUE(sol.solve_ok);
  EXPECT_EQ(sol.floating_islands, 0u);
}

TEST(ImportedGrid, BackendsAgree) {
  const PgNetlist n = read_netlist_file(fixture("mesh3x3.spice"));
  const ImportedGrid grid(n);
  GridSolveOptions ref, opt;
  ref.backend = la::BackendChoice::Reference;
  opt.backend = la::BackendChoice::Optimized;
  const GridSolution a = grid.solve(ref);
  const GridSolution b = grid.solve(opt);
  ASSERT_TRUE(a.solve_ok && b.solve_ok);
  ASSERT_EQ(a.voltages.size(), b.voltages.size());
  for (std::size_t i = 0; i < a.voltages.size(); ++i) {
    EXPECT_NEAR(a.voltages[i], b.voltages[i], 1e-12) << i;
  }
}

TEST(ImportedGrid, EveryGroundAliasNamesGround) {
  const PgNetlist n =
      read_netlist_text("V1 a 0 1\nR1 a b 1\nR2 b Gnd 1\nI1 b G 0.1\n");
  const ImportedGrid grid(n);
  const GridSolution sol = grid.solve();
  ASSERT_TRUE(sol.solve_ok) << sol.diagnostic;
  const GoldenSolution golden = read_solution_text("a 1\nGnd 0\nG 0\n");
  for (const char* alias : {"0", "gnd", "GND", "Gnd", "G"}) {
    EXPECT_EQ(grid.slot_of(alias), grid.slot_of("0")) << alias;
    double v = 1.0;
    EXPECT_TRUE(grid.node_voltage(sol, alias, &v)) << alias;
    EXPECT_EQ(v, 0.0) << alias;
    v = 1.0;
    EXPECT_TRUE(golden.lookup(alias, &v)) << alias;
    EXPECT_EQ(v, 0.0) << alias;
  }
}

}  // namespace
}  // namespace vstack::pgio
