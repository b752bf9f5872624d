// Malformed-input corpus: every rejection must carry a "<source>:<line>:"
// prefix and an actionable message.  These run under ASan/UBSan in CI (the
// pgio ingestion job), so they double as memory-safety probes of the
// error paths.
#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "pgio/reader.h"

namespace vstack::pgio {
namespace {

void expect_netlist_fail(const std::string& text, const std::string& where,
                         const std::string& needle,
                         const ReadOptions& options = {}) {
  try {
    read_netlist_text(text, "<netlist>", options);
    FAIL() << "accepted malformed netlist: " << text;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(where), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

void expect_solution_fail(const std::string& text, const std::string& where,
                          const std::string& needle,
                          const ReadOptions& options = {}) {
  try {
    read_solution_text(text, "<solution>", options);
    FAIL() << "accepted malformed solution: " << text;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(where), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(MalformedNetlist, CardArity) {
  expect_netlist_fail("R1 a b\n", "<netlist>:1:", "R card");
  expect_netlist_fail("R1 a b 1 extra\n", "<netlist>:1:", "R card");
  expect_netlist_fail("V1 a 0\n", "<netlist>:1:", "V card");
  expect_netlist_fail("I1 a\n", "<netlist>:1:", "I card");
  expect_netlist_fail("C1 a b\n", "<netlist>:1:", "C card");
  expect_netlist_fail(".shorts a\n", "<netlist>:1:", ".shorts");
}

TEST(MalformedNetlist, SelfLoopsAndValues) {
  expect_netlist_fail("R1 a a 1\n", "<netlist>:1:", "connects a node to itself");
  expect_netlist_fail("R1 a gnd -1\n", "<netlist>:1:", "resistance must be");
  expect_netlist_fail("* ok\nC1 a 0 0\n", "<netlist>:2:",
                      "capacitance must be positive");
  expect_netlist_fail("R1 a b 1x\n", "<netlist>:1:", "1x");
  expect_netlist_fail("R1 a b 1e400\n", "<netlist>:1:", "");
  expect_netlist_fail(".shorts a a\n", "<netlist>:1:", "itself");
  expect_netlist_fail("V1 a a 1\n", "<netlist>:1:", "itself");
}

TEST(MalformedNetlist, PadRules) {
  // Both terminals internal: not a pad the subset can express.
  expect_netlist_fail("V1 a b 1.0\n", "<netlist>:1:",
                      "must reference ground on one terminal");
  // Conflicting redefinition names the first definition's line.
  expect_netlist_fail("V1 a 0 1.0\nV2 a 0 1.2\n", "<netlist>:2:",
                      "conflicting pad definition for node 'a' (first "
                      "defined at line 1)");
  expect_netlist_fail("V1 a 0 1.0\nV2 a 0 1.0\n", "<netlist>:2:",
                      "duplicate pad definition");
}

TEST(MalformedNetlist, UnknownCardsAndDirectives) {
  expect_netlist_fail("X1 a b 1\n", "<netlist>:1:", "unknown element card");
  expect_netlist_fail(".tran 1u\n", "<netlist>:1:", "unknown directive");
  expect_netlist_fail("L1 a b 1n\n", "<netlist>:1:",
                      "outside the supported subset");
  expect_netlist_fail(".end extra\n", "<netlist>:1:", ".end takes no");
  expect_netlist_fail(".end\nR1 a b 1\n", "<netlist>:2:",
                      "content after .end");
}

TEST(MalformedNetlist, DuplicateElementNames) {
  expect_netlist_fail("R1 a b 1\nR1 b c 1\n", "<netlist>:2:",
                      "duplicate element name 'R1'");
  // The check spans card kinds: one namespace, like the benchmarks assume.
  expect_netlist_fail("R1 a b 1\nI1 a 0 1\nI1 b 0 1\n", "<netlist>:3:",
                      "duplicate element name");
}

TEST(MalformedNetlist, ResourceBudgets) {
  ReadOptions tight;
  tight.max_nodes = 2;
  expect_netlist_fail("R1 a b 1\nR2 c d 1\n", "<netlist>:2:",
                      "node budget exceeded", tight);

  ReadOptions few_elements;
  few_elements.max_elements = 1;
  expect_netlist_fail("R1 a b 1\nR2 b c 1\n", "<netlist>:2:",
                      "element budget exceeded", few_elements);

  ReadOptions short_lines;
  short_lines.max_line_length = 8;
  expect_netlist_fail("R1 node_with_a_long_name b 1\n", "<netlist>:1:",
                      "line longer than 8", short_lines);

  ReadOptions tiny_names;
  tiny_names.max_name_bytes = 4;
  expect_netlist_fail("R1 abcdef ghijkl 1\n", "<netlist>:1:",
                      "name budget exceeded", tiny_names);
}

TEST(MalformedSolution, Rejections) {
  expect_solution_fail("a 1.0 extra\n", "<solution>:1:",
                       "expected '<node> <volts>'");
  expect_solution_fail("a\n", "<solution>:1:", "expected '<node> <volts>'");
  expect_solution_fail("a xyz\n", "<solution>:1:", "xyz");
  expect_solution_fail("a 1.0\na 1.0\n", "<solution>:2:",
                       "duplicate solution entry");
  expect_solution_fail("0 0.5\n", "<solution>:1:", "ground listed at");

  ReadOptions tight;
  tight.max_nodes = 1;
  expect_solution_fail("a 1\nb 2\n", "<solution>:2:", "node budget exceeded",
                       tight);
}

TEST(MalformedNetlist, OutOfRangeLiteralsFail) {
  // Each underflows to a subnormal or to zero; 1e-400 used to become a
  // zero-ohm via short.
  expect_netlist_fail("R1 a b 1e-320\n", "<netlist>:1:", "out of range");
  expect_netlist_fail("R1 a b 1e-400\n", "<netlist>:1:", "out of range");
  expect_netlist_fail("I1 a 0 1e-300f\n", "<netlist>:1:", "out of range");
  expect_netlist_fail("I1 a 0 1e300t\n", "<netlist>:1:", "non-finite");
  expect_solution_fail("a 1e-320\n", "<solution>:1:", "out of range");
  // Nothing may follow a magnitude suffix, an embedded NUL included.
  expect_netlist_fail(std::string("R1 a b 1\0x\n", 11), "<netlist>:1:",
                      "unknown value suffix");
}

}  // namespace
}  // namespace vstack::pgio
