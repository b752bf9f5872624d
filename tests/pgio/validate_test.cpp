// Golden-voltage cross-validation: every shipped fixture must pass under
// every backend at machine precision; doctored goldens must fail with the
// worst node named.
#include "pgio/validate.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "pgio/reader.h"

namespace vstack::pgio {
namespace {

std::string fixture(const std::string& name) {
  return std::string(VSTACK_PGIO_TEST_DATA) + "/" + name;
}

// Passed by name: GCC 12 flags the defaulted temporary's Deadline as
// maybe-uninitialized (-Wmaybe-uninitialized) in a Release build.
const ValidateOptions defaults;

TEST(Validate, FixturesPassUnderEveryBackend) {
  for (const char* name : {"ladder4", "mesh3x3", "twonet_vias"}) {
    const PgNetlist netlist =
        read_netlist_file(fixture(std::string(name) + ".spice"));
    const GoldenSolution golden =
        read_solution_file(fixture(std::string(name) + ".solution"));
    const ImportedGrid grid(netlist);
    const ValidationReport report = validate(grid, golden, defaults);
    EXPECT_TRUE(report.pass()) << name << ":\n" << report.format();
    ASSERT_EQ(report.backends.size(), 2u);
    for (const auto& b : report.backends) {
      EXPECT_TRUE(b.solve_ok) << b.diagnostic;
      EXPECT_EQ(b.missing, 0u);
      EXPECT_LT(b.max_abs_error_v, 1e-9) << name << " " << b.backend;
      EXPECT_LE(b.rms_error_v, b.max_abs_error_v);
      EXPECT_GT(b.compared, 0u);
    }
  }
}

TEST(Validate, DoctoredGoldenFailsAndNamesWorstNode) {
  const PgNetlist netlist = read_netlist_file(fixture("ladder4.spice"));
  const ImportedGrid grid(netlist);
  const GoldenSolution golden = read_solution_text(
      "n1_0_0 1.0\n"
      "n1_1_0 0.7\n"
      "n1_2_0 0.5\n"
      "n1_3_0 0.3\n");  // truth is 0.4: off by 100 mV
  const ValidationReport report = validate(grid, golden, defaults);
  EXPECT_FALSE(report.pass());
  for (const auto& b : report.backends) {
    EXPECT_TRUE(b.solve_ok);
    EXPECT_FALSE(b.pass());
    EXPECT_NEAR(b.max_abs_error_v, 0.1, 1e-6);
    EXPECT_EQ(b.worst_node, "n1_3_0");
  }

  // ... but a loose tolerance turns the same comparison into a pass.
  ValidateOptions loose;
  loose.tolerance_v = 0.2;
  EXPECT_TRUE(validate(grid, golden, loose).pass());
}

TEST(Validate, MissingGoldenNodesFailValidation) {
  const PgNetlist netlist = read_netlist_file(fixture("ladder4.spice"));
  const ImportedGrid grid(netlist);
  const GoldenSolution golden = read_solution_text(
      "n1_0_0 1.0\n"
      "n1_1_0 0.7\n");  // n1_2_0 / n1_3_0 absent
  const ValidationReport report = validate(grid, golden, defaults);
  EXPECT_FALSE(report.pass());
  for (const auto& b : report.backends) {
    EXPECT_EQ(b.missing, 2u);
    EXPECT_EQ(b.compared, 2u);
  }
}

TEST(Validate, FloatingNodesAreSkippedNotCompared) {
  const PgNetlist netlist = read_netlist_text(
      "V1 a 0 1.0\n"
      "R1 a b 1\n"
      "R2 c d 1\n"  // floating pair: no golden entry needed
      ".end\n");
  const ImportedGrid grid(netlist);
  const GoldenSolution golden = read_solution_text("a 1.0\nb 1.0\n");
  const ValidationReport report = validate(grid, golden, defaults);
  EXPECT_TRUE(report.pass()) << report.format();
  for (const auto& b : report.backends) {
    EXPECT_EQ(b.skipped_floating, 2u);
    EXPECT_EQ(b.missing, 0u);
  }
}

TEST(Validate, UnknownBackendNameThrows) {
  const PgNetlist netlist = read_netlist_file(fixture("ladder4.spice"));
  const ImportedGrid grid(netlist);
  const GoldenSolution golden =
      read_solution_file(fixture("ladder4.solution"));
  ValidateOptions options;
  options.backends = {"simd-of-the-future"};
  EXPECT_THROW(validate(grid, golden, options), Error);
}

TEST(Validate, EmptyBackendListNeverPasses) {
  ValidationReport report;
  EXPECT_FALSE(report.pass());
}

}  // namespace
}  // namespace vstack::pgio
