// Every matrix the PDN hands to la::Solver is symmetric: the contract that
// lets CG be the one Krylov method (la/solver.h).  The transient step matrix
// is checked entry by entry; the DC matrix is private to PdnModel, so its
// solves must converge on a single CG attempt.  Both hold for both
// topologies and both converter references, intact and after a fault set
// that opens, degrades, leaks and disables.
//
// Every stamp is symmetric, but the CSR merge may sum the duplicates of
// (i, j) and of (j, i) in different orders (la/sparse.cpp keeps the sort's
// tie order, which fixes the bits of every output).  With adjacent-rail
// converters that leaves a few entries one rounding apart from their
// transpose, so the check allows one unit in the last place.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "pdn/fault.h"
#include "pdn/solver.h"
#include "pdn/transient_core.h"
#include "power/workload.h"

namespace vstack::pdn {
namespace {

const floorplan::Floorplan& paper_fp() {
  static const floorplan::Floorplan fp = floorplan::paper_layer_floorplan();
  return fp;
}

const power::CorePowerModel& cpm() {
  static const power::CorePowerModel m =
      power::CorePowerModel::cortex_a9_like();
  return m;
}

struct Stack {
  const char* name;
  PdnTopology topology;
  ConverterReference reference;
};

const Stack kStacks[] = {
    {"regular/ideal", PdnTopology::Regular3d, ConverterReference::IdealRails},
    {"regular/adjacent", PdnTopology::Regular3d,
     ConverterReference::AdjacentRails},
    {"stacked/ideal", PdnTopology::VoltageStacked,
     ConverterReference::IdealRails},
    {"stacked/adjacent", PdnTopology::VoltageStacked,
     ConverterReference::AdjacentRails},
};

StackupConfig config(const Stack& stack) {
  StackupConfig cfg;
  cfg.topology = stack.topology;
  cfg.converter_reference = stack.reference;
  cfg.layer_count = 4;
  cfg.grid_nx = cfg.grid_ny = 6;
  return cfg;
}

std::size_t first_of(const PdnNetwork& net, ConductorKind kind) {
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    if (net.conductors()[i].kind == kind) return i;
  }
  ADD_FAILURE() << "no conductor of the requested kind";
  return 0;
}

/// Open a grid strap, degrade a C4 ground bump, leak a mid-stack node to
/// ground and, where the stack has converters, stick one off.
FaultSet mixed_faults(const PdnNetwork& net) {
  FaultSet faults;
  faults.open_conductor(first_of(net, ConductorKind::GridStrap))
      .degrade_conductor(first_of(net, ConductorKind::C4Gnd), 8.0)
      .leakage_to_ground(net.vdd_node(1, 7), 50.0);
  if (!net.converters().empty()) faults.converter_stuck_off(0);
  return faults;
}

/// Stored entries farther than one unit in the last place from their
/// transpose partner (a missing partner reads as 0).
std::size_t asymmetric_entries(const la::CsrMatrix& a) {
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const double x = a.values()[k];
      const double y = a.at(a.col_idx()[k], r);
      if (std::abs(x - y) > std::numeric_limits<double>::epsilon() *
                                std::max(std::abs(x), std::abs(y))) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

void expect_step_matrices_symmetric(const detail::SplitSystem& sys,
                                    const std::string& what) {
  for (const bool backward_euler : {true, false}) {
    for (const double h : {1e-10, 1e-9}) {
      EXPECT_EQ(asymmetric_entries(sys.assemble(h, backward_euler)), 0u)
          << what << (backward_euler ? " BE" : " trap") << " h=" << h;
    }
  }
}

TEST(PdnSymmetricSystem, StepMatrixIsSymmetric) {
  for (const Stack& stack : kStacks) {
    const PdnModel model(config(stack), paper_fp());
    PdnNetwork net = model.network();
    const PdnTransientOptions options;
    detail::TransientWorkspace ws(net, options);
    expect_step_matrices_symmetric(ws.system(),
                                   std::string(stack.name) + " intact");

    mixed_faults(net).apply_to(net);
    ws.rebuild_topology();
    expect_step_matrices_symmetric(ws.system(),
                                   std::string(stack.name) + " faulted");
  }
}

void expect_single_cg_attempt(const PdnSolution& sol,
                              const std::string& what) {
  ASSERT_TRUE(sol.solve_ok) << what << ": " << sol.diagnostic;
  ASSERT_EQ(sol.report.attempts.size(), 1u) << what;
  EXPECT_EQ(sol.report.attempts.front().method, "cg+ilu0") << what;
  EXPECT_TRUE(sol.report.attempts.front().converged) << what;
}

TEST(PdnSymmetricSystem, DcSolveConvergesOnOneCgAttempt) {
  for (const Stack& stack : kStacks) {
    PdnModel model(config(stack), paper_fp());
    const std::vector<double> activities =
        power::interleaved_layer_activities(4, 0.5);
    expect_single_cg_attempt(model.solve_activities(cpm(), activities),
                             std::string(stack.name) + " intact");

    mixed_faults(model.network()).apply_to(model.network_mutable());
    expect_single_cg_attempt(model.solve_activities(cpm(), activities),
                             std::string(stack.name) + " faulted");
  }
}

}  // namespace
}  // namespace vstack::pdn
