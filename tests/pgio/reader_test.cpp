// Happy-path reader coverage: card bucketing, the via-short
// idioms, ground aliases, pad sign conventions, and the golden-solution
// parser.  Malformed inputs live in malformed_test.cpp.
#include "pgio/reader.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vstack::pgio {
namespace {

TEST(ReadNetlist, BucketsCardsByRole) {
  const PgNetlist n = read_netlist_text(
      "* header comment\n"
      ".title demo grid\n"
      "R1 a b 0.1    ; trailing comment\n"
      "R2 b 0 0.2\n"
      "Rvia a c 0\n"
      "Vmeter c d 0\n"
      "V1 a 0 1.0\n"
      "I1 b 0 0.5\n"
      "C1 b gnd 10p\n"
      ".shorts d e\n"
      ".op\n"
      ".end\n");
  EXPECT_EQ(n.title, "demo grid");
  EXPECT_EQ(n.resistors.size(), 2u);
  EXPECT_EQ(n.shorts.size(), 3u);  // 0-ohm R, 0 V "ammeter", .shorts
  EXPECT_EQ(n.pads.size(), 1u);
  EXPECT_EQ(n.loads.size(), 1u);
  EXPECT_EQ(n.caps.size(), 1u);
  EXPECT_EQ(n.node_count(), 5u);  // a b c d e; ground never interned
  EXPECT_EQ(n.line_count, 12u);
  EXPECT_EQ(n.element_count(), 8u);
}

TEST(ReadNetlist, GroundAliasesAreOneNet) {
  const PgNetlist n = read_netlist_text(
      "R1 a 0 1\n"
      "R2 b gnd 1\n"
      "R3 c GND 1\n"
      "R4 d G 1\n"
      "R5 e Gnd 1\n"
      ".end\n");
  EXPECT_EQ(n.node_count(), 5u);
  for (const auto& r : n.resistors) EXPECT_EQ(r.b, kGroundNode);
}

TEST(ReadNetlist, PadSignConvention) {
  // V n+ n- val fixes V(n+) - V(n-) = val; with n+ = ground the pad node
  // sits at -val.
  const PgNetlist n = read_netlist_text(
      "Vp a 0 1.8\n"
      "Vn 0 b 0.9\n"
      ".end\n");
  ASSERT_EQ(n.pads.size(), 2u);
  EXPECT_DOUBLE_EQ(n.pads[0].value, 1.8);
  EXPECT_DOUBLE_EQ(n.pads[1].value, -0.9);
  const auto nets = n.net_potentials();
  ASSERT_EQ(nets.size(), 2u);
  EXPECT_DOUBLE_EQ(nets[0], 1.8);
  EXPECT_DOUBLE_EQ(nets[1], -0.9);
}

TEST(ReadNetlist, ElementCarriesSourceLine) {
  const PgNetlist n = read_netlist_text("* one\n\nR1 a b 2k\n");
  ASSERT_EQ(n.resistors.size(), 1u);
  EXPECT_EQ(n.resistors[0].line, 3u);
  EXPECT_DOUBLE_EQ(n.resistors[0].value, 2000.0);
}

TEST(LayerNames, BenchmarkGrammar) {
  EXPECT_EQ(layer_of_node_name("n3_140_8126"), 3);
  EXPECT_EQ(layer_of_node_name("n1_0_0"), 1);
  EXPECT_EQ(layer_of_node_name("foo"), -1);
  EXPECT_EQ(layer_of_node_name("n_1_2"), -1);
  EXPECT_EQ(layer_of_node_name("n1001_0_0"), -1);  // beyond the sane range

  const PgNetlist n = read_netlist_text(
      "R1 n1_0_0 n1_1_0 1\n"
      "R2 n3_0_0 other 1\n"
      ".end\n");
  const auto hist = layer_histogram(n);
  EXPECT_EQ(hist[0], 1u);  // "other"
  EXPECT_EQ(hist[2], 2u);  // layer 1
  EXPECT_EQ(hist[4], 1u);  // layer 3
}

TEST(NodeTable, InternSurvivesRehash) {
  NodeTable t;
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "n1_" + std::to_string(i) + "_7";
    EXPECT_EQ(t.intern(name), static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(t.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "n1_" + std::to_string(i) + "_7";
    EXPECT_EQ(t.find(name), static_cast<std::uint32_t>(i));
    EXPECT_EQ(t.name(static_cast<std::uint32_t>(i)), name);
  }
  EXPECT_EQ(t.find("absent"), NodeTable::kNotFound);
}

TEST(ReadSolution, ParsesAndLooksUp) {
  const GoldenSolution s = read_solution_text(
      "* golden voltages\n"
      "n1_0_0 1.0\n"
      "n1_1_0 0.95   ; almost\n"
      "G 0\n");
  EXPECT_EQ(s.size(), 2u);  // ground entries are validated, not stored
  double v = -1.0;
  ASSERT_TRUE(s.lookup("n1_1_0", &v));
  EXPECT_DOUBLE_EQ(v, 0.95);
  ASSERT_TRUE(s.lookup("0", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_FALSE(s.lookup("absent", &v));
}

}  // namespace
}  // namespace vstack::pgio
