// Golden-voltage cross-validation: solve an imported grid with the
// existing la::Solver (CG, then dense LU) under each requested kernel
// backend and compare every netlist node against the benchmark's
// published `.solution` voltages.
//
// This is the subsystem's reason to exist: the solver stack is checked
// against third-party data, not against itself.  A backend passes when
// the solve converged, every non-floating netlist node appears in the
// golden file, and the max absolute node error is within tolerance_v.
// Floating nodes (dangling subgrids held up only by the weak pin) are
// excluded from the comparison and counted separately -- their computed
// potential is an artifact of regularization, not a grid property.
#pragma once

#include <string>
#include <vector>

#include "pgio/grid.h"
#include "pgio/netlist.h"

namespace vstack::pgio {

struct ValidateOptions {
  GridSolveOptions solve;  // backend field is overridden per entry below
  /// Kernel backends to validate under (la::backend_by_name names).
  std::vector<std::string> backends{"reference", "optimized"};
  /// Max |v - golden| accepted per node [V].
  double tolerance_v = 1e-6;
};

/// One backend's comparison against the golden solution.
struct BackendValidation {
  std::string backend;
  bool solve_ok = false;
  std::string diagnostic;        // solver diagnostic when !solve_ok
  std::size_t compared = 0;      // nodes checked against the golden file
  std::size_t missing = 0;       // non-floating nodes absent from it
  std::size_t skipped_floating = 0;
  double max_abs_error_v = 0.0;
  double rms_error_v = 0.0;
  std::string worst_node;
  double tolerance_v = 0.0;

  bool pass() const {
    return solve_ok && missing == 0 && max_abs_error_v <= tolerance_v;
  }
};

struct ValidationReport {
  std::vector<BackendValidation> backends;

  bool pass() const;
  /// Human-readable multi-line summary (one line per backend).
  std::string format() const;
};

/// Solve `grid` under every options.backends entry and compare against
/// `golden`.  Throws vstack::Error for an unknown backend name; solver
/// failures are reported per backend, not thrown.
ValidationReport validate(const ImportedGrid& grid,
                          const GoldenSolution& golden,
                          const ValidateOptions& options = {});

}  // namespace vstack::pgio
