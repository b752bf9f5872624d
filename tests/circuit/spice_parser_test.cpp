#include "circuit/spice_parser.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vstack::circuit {
namespace {

constexpr const char* kDividerNetlist = R"(
* a simple divider with a cap
.title divider test
V1 vin 0 10
R1 vin mid 1k
R2 mid 0 3k
C1 mid 0 1u IC=7.5
.tran 1u 1m DC
.end
)";

TEST(SpiceParserTest, ParsesDivider) {
  const auto c = parse_spice(kDividerNetlist);
  EXPECT_EQ(c.title, "divider test");
  EXPECT_EQ(c.netlist.resistors().size(), 2u);
  EXPECT_EQ(c.netlist.capacitors().size(), 1u);
  EXPECT_EQ(c.netlist.voltage_sources().size(), 1u);
  EXPECT_DOUBLE_EQ(c.netlist.resistors()[1].resistance, 3000.0);
  EXPECT_DOUBLE_EQ(c.netlist.capacitors()[0].initial_voltage, 7.5);
  ASSERT_TRUE(c.has_tran);
  EXPECT_DOUBLE_EQ(c.tran.time_step, 1e-6);
  EXPECT_DOUBLE_EQ(c.tran.stop_time, 1e-3);
  EXPECT_TRUE(c.tran.start_from_dc);
}

TEST(SpiceParserTest, ParsedDividerSolvesCorrectly) {
  const auto c = parse_spice(kDividerNetlist);
  const auto dc = dc_solve(c.netlist, {});
  EXPECT_NEAR(dc.node_voltages[c.node_by_name.at("mid")], 7.5, 1e-9);
}

TEST(SpiceParserTest, GroundAliases) {
  const auto c = parse_spice("R1 a gnd 1k\nR2 a 0 1k\n.end\n");
  EXPECT_EQ(c.netlist.resistors()[0].b, kGround);
  EXPECT_EQ(c.netlist.resistors()[1].b, kGround);
  EXPECT_EQ(c.node_by_name.size(), 1u);  // just "a"
}

TEST(SpiceParserTest, SwitchCardWithPhase) {
  const auto c = parse_spice(
      "V1 in 0 1\nS1 in out 0.5 1e9 PHASE=0.25 DUTY=0.4\nR1 out 0 10\n"
      ".clock 20n\n.end\n");
  ASSERT_EQ(c.netlist.switches().size(), 1u);
  const auto& sw = c.netlist.switches()[0];
  EXPECT_DOUBLE_EQ(sw.on_resistance, 0.5);
  EXPECT_DOUBLE_EQ(sw.phase.phase_offset, 0.25);
  EXPECT_DOUBLE_EQ(sw.phase.duty, 0.4);
  EXPECT_DOUBLE_EQ(c.clock_period, 20e-9);
}

TEST(SpiceParserTest, CommentsAndBlankLinesIgnored) {
  const auto c = parse_spice(
      "* leading comment\n\nR1 a 0 1k ; trailing comment\n   \n.end\n");
  EXPECT_EQ(c.netlist.resistors().size(), 1u);
}

TEST(SpiceParserTest, ErrorsCarrySourceNameLineAndToken) {
  try {
    parse_spice("R1 a 0 1k\nQ1 b 0 1k\n", "bench.sp");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bench.sp:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("Q1"), std::string::npos) << what;
  }
}

TEST(SpiceParserTest, ErrorsNameTheOffendingValueToken) {
  try {
    parse_spice("R1 a 0 1x2\n", "bad.sp");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad.sp:1:"), std::string::npos) << what;
    EXPECT_NE(what.find("1x2"), std::string::npos) << what;
  }
}

TEST(SpiceParserTest, RejectsMalformedCards) {
  EXPECT_THROW(parse_spice("R1 a 0\n"), Error);                // missing value
  EXPECT_THROW(parse_spice("S1 a b 0.5 1e9 0.25 0.4\n"), Error);  // no keys
  EXPECT_THROW(parse_spice(".tran 1u\n"), Error);
  EXPECT_THROW(parse_spice(".bogus\n"), Error);
  EXPECT_THROW(parse_spice(".end\nR1 a 0 1k\n"), Error);  // after .end
}

// Malformed-netlist corpus: every entry must be rejected with a clean parse
// error (no crash, no acceptance).  Runs under ASan+UBSan in the sanitizer
// CI job.
TEST(SpiceParserTest, MalformedCorpusAllRejected) {
  const char* corpus[] = {
      "R1 a 0 -1k\n",                   // negative resistance
      "R1 a 0 0\n",                     // zero resistance
      "C1 a 0 -1n\n",                   // negative capacitance
      "C1 a 0 1n IC\n",                 // bare IC without value
      "C1 a 0 1n IC=abc\n",             // garbage IC value
      "C1 a 0 1n IC=1 extra\n",         // trailing token
      "R1 a 0 1k\nR1 b 0 2k\n",         // duplicate element name
      "R1 a 0 1k\nr1 b 0 2k\n",         // duplicate, case-insensitive
      "S1 a b -0.5 1e9 PHASE=0 DUTY=0.5\n",   // negative Ron
      "S1 a b 10 1 PHASE=0 DUTY=0.5\n",        // Roff < Ron
      "S1 a b 1 1e9 PHASE=1.5 DUTY=0.5\n",     // phase out of range
      "S1 a b 1 1e9 PHASE=0 DUTY=1.5\n",       // duty out of range
      "S1 a b 1 1e9 PHASE=0 DUTY=-0.1\n",      // negative duty
      ".clock 0\n",                     // zero clock period
      ".clock -1n\n",                   // negative clock period
      ".clock 1n\n.clock 2n\n",         // duplicate .clock
      ".tran 1n 1u\n.tran 1n 1u\n",     // duplicate .tran
      ".tran 1u 1n\n",                  // stop <= step
      ".tran -1n 1u\n",                 // negative step
      ".tran 1n 1u FAST\n",             // unknown flag
      "V1 a 0 1e999\n",                 // overflow -> non-finite
      "V1 a 0 nan\n",                   // NaN value
      "X1 a 0 1\n",                     // unknown card
  };
  for (const char* text : corpus) {
    EXPECT_THROW(parse_spice(text, "corpus.sp"), Error)
        << "accepted malformed netlist:\n" << text;
  }
}

TEST(SpiceParserTest, TranAdaptiveFlagSelectsAdaptiveMode) {
  const auto c = parse_spice("R1 a 0 1k\n.tran 1n 1u DC ADAPTIVE\n.end\n");
  ASSERT_TRUE(c.has_tran);
  EXPECT_TRUE(c.tran.start_from_dc);
  EXPECT_EQ(c.tran.mode, SteppingMode::Adaptive);
  // Round trip keeps the flag.
  const auto reparsed = parse_spice(write_spice(c));
  EXPECT_EQ(reparsed.tran.mode, SteppingMode::Adaptive);
}

TEST(SpiceParserTest, RoundTripPreservesCircuit) {
  const auto original = parse_spice(kDividerNetlist);
  const auto text = write_spice(original);
  const auto reparsed = parse_spice(text);
  EXPECT_EQ(reparsed.netlist.resistors().size(),
            original.netlist.resistors().size());
  EXPECT_DOUBLE_EQ(reparsed.netlist.capacitors()[0].initial_voltage, 7.5);
  // Same DC answer after the round trip.
  const auto dc = dc_solve(reparsed.netlist, {});
  EXPECT_NEAR(dc.node_voltages[reparsed.node_by_name.at("mid")], 7.5, 1e-9);
}

TEST(SpiceParserTest, ParsedSwitcherRunsTransient) {
  // A chargeable cap behind an alternating switch pair: parse and run.
  const auto c = parse_spice(R"(
V1 in 0 1
S1 in top 1 1g PHASE=0.0 DUTY=0.45
S2 top out 1 1g PHASE=0.5 DUTY=0.45
C1 top 0 10n
C2 out 0 10n
R1 out 0 1k
.clock 100n
.tran 1n 20u
.end
)");
  ASSERT_TRUE(c.has_tran);
  TransientSimulator sim(c.netlist, c.clock_period);
  const auto r = sim.run(c.tran);
  // The switched-cap chain pumps charge to the output: a clearly positive
  // average emerges.
  const double v_out =
      r.average_node_voltage(c.node_by_name.at("out"), 15e-6);
  EXPECT_GT(v_out, 0.3);
  EXPECT_LT(v_out, 1.0);
}

// Values follow the number rule shared with pgio (common/text_input.h): a
// magnitude suffix must end the token, literals must be in range, numeric
// tokens are at most 63 characters and only blanks and tabs separate
// tokens.  Each of these netlists was accepted before the rule was shared.
TEST(SpiceParserTest, SharedNumberRuleRejections) {
  const std::string digits64(64, '1');
  const std::string corpus[] = {
      "R1 a 0 1kk\n",       // read as 1e3
      "C1 a 0 10uF\n",      // read as 1e-5
      "R1 a 0 1mil\n",      // read as 1e-3, not SPICE's 25.4e-6
      "I1 a 0 5mA\n",       // read as 5e-3
      "R1 a 0 1megohm\n",   // read as 1e6
      "R1 a 0 1e300t\n",    // scaled to +inf
      "V1 a 0 1e-300f\n",   // scaled to a subnormal
      "R1 a 0 " + digits64 + "\n",
      "R1 a\v0 1k\n",       // '\v' no longer separates tokens
      "R1 a 0\f1k\n",
  };
  for (const std::string& text : corpus) {
    EXPECT_THROW(parse_spice(text, "rule.sp"), Error)
        << "accepted: " << text;
  }
}

TEST(SpiceParserTest, RoundTripIsBitExact) {
  const auto original = parse_spice(
      "V1 in 0 1.0000001\nR1 in mid 0.333333333333333315\n"
      "C1 mid 0 2.2e-9 IC=0.1\nS1 mid out 0.1 1e9 PHASE=0.3 DUTY=0.45\n"
      "R2 out 0 1k\nI1 out 0 1e-3\n.clock 1e-8\n.tran 3.3e-11 1e-7\n");
  const auto reparsed = parse_spice(write_spice(original));
  EXPECT_EQ(write_spice(reparsed), write_spice(original));
  EXPECT_EQ(reparsed.netlist.voltage_sources()[0].voltage, 1.0000001);
  EXPECT_EQ(reparsed.netlist.resistors()[0].resistance, 1.0 / 3.0);
  EXPECT_EQ(reparsed.netlist.capacitors()[0].capacitance, 2.2e-9);
  EXPECT_EQ(reparsed.netlist.switches()[0].phase.phase_offset, 0.3);
  EXPECT_EQ(reparsed.tran.time_step, 3.3e-11);
}

}  // namespace
}  // namespace vstack::circuit
