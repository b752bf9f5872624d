// IR-drop solver for the 3D PDN and the paper's per-conductor current
// reports.
//
// The MNA system is assembled without branch unknowns: loads are current
// injections, the package supply is folded into the right-hand side, and
// each push-pull converter stamps the symmetric PSD block (1/R) v v^T with
// v = (1/2, 1/2, -1) on (top, bottom, out) -- algebraically identical to a
// resistor R between the output and the virtual midpoint (V_top+V_bottom)/2.
// The full system therefore stays SPD for both topologies, intact or
// fault-damaged (pdn/fault.h opens, degrades and disables stamps but keeps
// each one symmetric), and is solved with warm-started ILU(0)-preconditioned
// CG through la::Solver.  When CG stalls on a badly damaged network, the
// solve falls back to dense LU on small systems and reports the attempt
// trail instead of throwing (see docs/fault_model.md).
#pragma once

#include "floorplan/power_map.h"
#include "la/solver.h"
#include "pdn/network.h"

namespace vstack::pdn {

struct PdnSolution {
  /// Solved potentials for every unknown node.
  la::Vector node_voltages;
  double supply_voltage = 0.0;

  /// Potential of `node` [V]: its solved value, or a fixed rail's
  /// potential for the kFixedSupply/kFixedGround sentinels.
  double voltage(std::size_t node) const {
    const FixedRails rails{supply_voltage};
    return rails.is_fixed(node) ? rails.fixed_potential(node)
                                : node_voltages[node];
  }

  /// Per-layer droop maps: nominal per-layer Vdd minus the local supply
  /// span (positive = droop) [V].
  std::vector<floorplan::GridMap> layer_droop;
  double max_ir_drop = 0.0;            // [V], worst droop across all layers
  double max_ir_drop_fraction = 0.0;   // / vdd
  double max_overshoot_fraction = 0.0; // worst span ABOVE nominal / vdd

  /// Maximum deviation of ANY grid node from its nominal rail potential,
  /// as a fraction of vdd.  This is VoltSpot's voltage-noise metric and the
  /// quantity the paper's Fig. 6 reports as "maximum on-chip IR drop".
  double max_node_deviation_fraction = 0.0;

  /// Per-physical-conductor current magnitudes for the EM study.
  std::vector<double> c4_pad_currents;   // every power bump (incl. via pads)
  std::vector<double> tsv_currents;      // every TSV / via segment

  /// Layer interface (lower layer index) of each tsv_currents entry;
  /// enables thermal-EM coupling (per-conductor temperatures).
  std::vector<unsigned> tsv_interface_of;

  /// Signed converter output currents (positive = sourcing into the rail).
  std::vector<double> converter_currents;
  double max_converter_current = 0.0;
  bool converter_limit_ok = true;

  double supply_current = 0.0;  // drawn from the off-chip source [A]
  double supply_power = 0.0;    // supply_voltage * supply_current [W]
  double load_power = 0.0;      // actually delivered to the loads [W]

  /// Resistive-path efficiency (grid + converter conduction only; switching
  /// parasitics are accounted by sc::evaluate_ladder_power / core layer).
  double resistive_efficiency = 0.0;

  la::SolveReport report;

  /// True when the solve converged and the metrics above are valid.  A
  /// failed solve does NOT throw (fault-damaged networks are expected to be
  /// hard); it returns solve_ok == false with zeroed metrics and a
  /// diagnostic, and `report.attempts` shows what la::Solver tried.
  bool solve_ok = false;
  std::string diagnostic;  // nonempty on failure or structural infeasibility

  /// Floating-subgraph accounting: islands cut off from every fixed
  /// potential by fault application are grounded with a weak pin to their
  /// nominal rail level so the matrix stays nonsingular.  Load current
  /// injected into such an island has no physical return path, so any
  /// nonzero floating_load_current marks the case structurally infeasible.
  std::size_t floating_island_count = 0;
  std::size_t floating_node_count = 0;
  double floating_load_current = 0.0;  // [A]
};

struct PdnSolveOptions {
  la::IterativeOptions iterative{.max_iterations = 20000,
                                 .relative_tolerance = 1e-9};
};

/// Fixed-point refinements of the per-converter series resistance for
/// closed-loop converter control (open-loop stacks solve once).
inline constexpr std::size_t kClosedLoopRefinements = 3;

/// One PDN network plus its cached assembled system.  The matrix, the
/// floating-island map and the bound la::Solver (preconditioner, prepared
/// backend form, Krylov workspace) are keyed on (topology epoch, converter
/// series resistances) and reused by every solve whose key matches.
///
/// Two entry points differ only in the first CG run's initial guess:
/// - solve() warm-starts from the previous converged solution, so its bits
///   depend on what this model solved before;
/// - solve_cold() starts from zero, so its result is bit-identical to
///   solve() on a freshly built model of the same network, whatever this
///   model solved before.  The la::Solver keeps no state between solves
///   but its workspace, which each solve overwrites.
/// Inside one call the two behave alike: a closed-loop refinement starts
/// from the iterate before it, or from zero when its new resistances
/// differ from that iterate's (a re-assembled system).  A PdnModel is not
/// safe for concurrent use.
class PdnModel {
 public:
  PdnModel(const StackupConfig& config,
           const floorplan::Floorplan& floorplan);

  const PdnNetwork& network() const { return network_; }
  const StackupConfig& config() const { return network_.config(); }

  /// Mutable access for fault injection (pdn/fault.h).  Mutations bump the
  /// network's topology epoch; the cached system is keyed on it and
  /// reassembles automatically on the next solve.
  PdnNetwork& network_mutable() { return network_; }

  /// Solve for explicit load injections.
  ///
  /// The assembled matrix and its ILU(0) factorization depend only on the
  /// topology and the converter resistances, so they are cached across
  /// calls and the previous solution warm-starts the next CG run -- Monte
  /// Carlo noise sampling re-solves the same system with new right-hand
  /// sides two orders of magnitude faster than a cold solve.
  PdnSolution solve(const std::vector<LoadInjection>& loads,
                    const PdnSolveOptions& options = {}) const;

  /// solve() from a zero initial guess on the cached system: bit-identical
  /// to a fresh model's solve(), without re-assembling or re-binding when
  /// the cache key matches (sweeps over many right-hand sides on one
  /// network).
  PdnSolution solve_cold(const std::vector<LoadInjection>& loads,
                         const PdnSolveOptions& options = {}) const;

  /// solve_cold() of every load set in turn, with the same bits, reports
  /// and model state afterwards, and one pdn.dc.solves per set.  The sets'
  /// first passes share one bind and one lockstep CG run
  /// (la::Solver::solve over several right-hand sides); a closed-loop
  /// refinement of a set then starts from that set's own iterate.
  std::vector<PdnSolution> solve_cold(
      const std::vector<std::vector<LoadInjection>>& load_sets,
      const PdnSolveOptions& options = {}) const;

  /// Convenience: build loads from per-layer activities and solve.
  PdnSolution solve_activities(const power::CorePowerModel& model,
                               const std::vector<double>& layer_activities,
                               const PdnSolveOptions& options = {}) const;

 private:
  /// Each converter's own series resistance: the open-loop system.
  std::vector<double> nominal_r_series() const;
  /// Makes the cached system the one for these converter resistances,
  /// re-assembling and re-binding (and clearing last_solution_) only when
  /// the key changed.
  void bind(const std::vector<double>& converter_r_series) const;
  /// The bound system's right-hand side for `loads`; fills the solution's
  /// supply and floating-island fields.
  la::Vector load_rhs(const std::vector<LoadInjection>& loads,
                      PdnSolution& sol) const;
  /// One solve of the bound system from `guess` (zero when empty).
  PdnSolution solve_once(const std::vector<LoadInjection>& loads,
                         const std::vector<double>& converter_r_series,
                         const la::Vector& guess,
                         const PdnSolveOptions& options) const;
  /// Everything after the linear solve: the failure diagnostic, or the
  /// droop maps, noise metric, EM currents and converter currents; keeps
  /// the solution for the next warm start.
  void finish(const std::vector<LoadInjection>& loads,
              const std::vector<double>& converter_r_series,
              PdnSolution& sol) const;
  /// Closed-loop fixed-point passes after the first (no-op otherwise).
  void refine(const std::vector<LoadInjection>& loads,
              std::vector<double> r_series, PdnSolution& solution,
              const PdnSolveOptions& options) const;

  PdnNetwork network_;

  /// Cached system keyed by (topology epoch, converter resistance vector).
  /// Any network mutation bumps the epoch, so a fault application can never
  /// reuse a stale matrix.
  struct CachedSystem {
    std::size_t epoch = 0;
    std::vector<double> r_series;
    la::CsrMatrix matrix;
    la::Vector base_rhs;  // fixed-rail + ideal-reference injections
    /// Bound to `matrix` (stable: this struct lives behind a unique_ptr
    /// and the solver is created after the matrix reaches its final
    /// address).  Owns the preconditioner, the backend-prepared matrix
    /// form, and the reusable Krylov workspace.
    std::unique_ptr<la::Solver> solver;
    /// Floating-island map from fault application (islands are grounded
    /// with weak pins during assembly).
    std::vector<char> node_floating;
    std::size_t island_count = 0;
    std::size_t floating_node_count = 0;
  };
  mutable std::unique_ptr<CachedSystem> cache_;
  mutable la::Vector last_solution_;
};

}  // namespace vstack::pdn
