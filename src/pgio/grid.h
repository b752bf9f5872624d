// ImportedGrid -- a parsed benchmark netlist (pgio/netlist.h) collapsed
// into a solvable PdnModel-compatible system.
//
// Construction performs the whole topology normalization pass once:
//
//   * Shorts (zero-ohm R cards, zero-volt V "ammeters", .shorts) are
//     collapsed by union-find; every netlist node maps to one *slot*.
//   * Slots are numbered unknowns-first: [0, unknown_count) are solved for,
//     [unknown_count, slot_count) are fixed (pad pins and the ground net)
//     with a per-slot potential -- the imported-grid generalization of
//     pdn::kFixedSupply/kFixedGround, which carry only two voltages.
//   * Elements are re-expressed against slots using the same structs the
//     synthesized PDN uses -- pdn::ConductorGroup and pdn::LoadInjection --
//     so the contingency/campaign machinery (pgio/campaign.h) can treat
//     imported and synthesized grids uniformly.
//   * Connected components with no fixed slot (dangling subgrids) are
//     weak-pinned to ground through kWeakPinConductance so the system
//     stays nonsingular; their slots, and any load current they
//     carry, are reported as floating rather than silently solved.
//
// DC solves stamp the slot conductance Laplacian with Dirichlet
// elimination (fixed-slot terms folded into the RHS), bind one la::Solver
// per topology epoch (pdn/solver.h's cached-system pattern: matrix first,
// solver after its address is final), and warm-start from the previous
// solution.  Fault mutators mirror PdnNetwork's and bump the epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "la/solver.h"
#include "pdn/network.h"
#include "pgio/netlist.h"

namespace vstack::pgio {

/// No-slot sentinel (lookup misses).
inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Conductance [S] pinning one node of each floating component to ground.
/// Small enough not to perturb anchored nets, large enough to keep the
/// matrix invertible.
inline constexpr double kWeakPinConductance = 1e-6;

struct GridSolveOptions {
  la::IterativeOptions iterative{.max_iterations = 20000,
                                 .relative_tolerance = 1e-9};
  /// One value, so no solve reads it; kept because the bench/e2e solver
  /// probe copies it into la::SolveOptions.
  la::PrecondKind preconditioner = la::PrecondKind::Auto;
  la::BackendChoice backend = la::BackendChoice::Auto;
};

/// One DC operating point.  `voltages` is indexed by unknown slot; use
/// ImportedGrid::node_voltage for name-based lookup (it resolves shorts and
/// fixed slots).  Deviation metrics skip floating slots -- their potential
/// is an artifact of the weak pin, not a grid property.
struct GridSolution {
  la::Vector voltages;
  bool solve_ok = false;
  std::string diagnostic;      // nonempty when solve_ok == false
  la::SolveReport report;

  double max_deviation_v = 0.0;        // max |v - nominal| over anchored slots
  double max_deviation_fraction = 0.0; // / max |pad potential| of the netlist
  std::size_t worst_slot = kNoSlot;
  std::string worst_node;              // representative netlist name

  double supply_current_a = 0.0;  // total current sourced by nonzero pads
  double load_current_a = 0.0;    // total |I| drawn by (scaled) loads

  std::size_t floating_islands = 0;
  std::size_t floating_nodes = 0;
  double floating_load_current_a = 0.0;
};

class ImportedGrid {
 public:
  /// Collapse `netlist` (which must outlive this grid; element lists and
  /// node names are referenced, not copied).  Throws vstack::Error with
  /// source:line context on post-collapse conflicts -- two pads at
  /// different potentials shorted together, or a nonzero pad shorted into
  /// the ground net.
  explicit ImportedGrid(const PgNetlist& netlist);

  /// Copies share the netlist but drop the cached system; campaign workers
  /// copy the base grid, mutate faults, and solve independently.
  ImportedGrid(const ImportedGrid& other);
  ImportedGrid& operator=(const ImportedGrid&) = delete;
  ~ImportedGrid();  // out of line: Cached is incomplete here

  const PgNetlist& netlist() const { return *netlist_; }

  std::size_t slot_count() const { return slot_potential_.size(); }
  std::size_t unknown_count() const { return unknown_count_; }
  std::size_t fixed_count() const { return slot_count() - unknown_count_; }

  bool is_fixed(std::size_t slot) const { return slot >= unknown_count_; }
  /// Fixed potential of slot (0 for unknown slots -- callers gate on
  /// is_fixed).
  double fixed_potential(std::size_t slot) const {
    return slot_potential_[slot];
  }
  /// Nominal potential: the pad value anchoring the slot's component (the
  /// one with the largest magnitude when a fault merges nets); 0 for
  /// floating components.
  double nominal_potential(std::size_t slot) const {
    return nominal_[slot];
  }
  bool is_floating(std::size_t slot) const { return floating_[slot] != 0; }

  /// Slot of a netlist node name (shorts resolved); kNoSlot when unknown.
  std::size_t slot_of(std::string_view name) const;
  /// Representative netlist node name of a slot (first-merged member; the
  /// ground net reports "0").
  std::string_view slot_name(std::size_t slot) const;

  /// Slot-indexed elements, in pdn's structs.  Imported conductors are
  /// ConductorKind::GridStrap with count 1 (the benchmarks enumerate every
  /// segment); injected leakage is ConductorKind::Leakage.
  const std::vector<pdn::ConductorGroup>& conductors() const {
    return conductors_;
  }
  const std::vector<pdn::LoadInjection>& loads() const { return loads_; }
  /// Decap value [F] per slot (summed; the load-step transient route).
  const std::vector<double>& slot_capacitance() const { return slot_cap_; }

  /// Monotone counter bumped by every mutator; derived caches key on it
  /// (same contract as PdnNetwork::topology_epoch).
  std::size_t topology_epoch() const { return topology_epoch_; }

  // --- Fault mutators (mirror PdnNetwork's; all bump the epoch) ----------

  /// Remove `units` parallel conductors from conductors()[index]; a group
  /// at count 0 stays as an inert placeholder so indices remain stable.
  void remove_conductor_units(std::size_t index, std::size_t units);

  /// Multiply conductors()[index]'s unit resistance by `factor` (> 0).
  void scale_conductor_resistance(std::size_t index, double factor);

  /// Resistive defect short from `slot` to the ground net.
  void add_leakage_to_ground(std::size_t slot, double resistance);

  /// Stamp the unknown-slot conductance Laplacian (conductors + weak pins)
  /// into `builder` and the RHS components (Dirichlet terms from fixed
  /// slots, unit-scale load injections) into the two vectors, which are
  /// reset to unknown_count() zeros first.  Conductors go through
  /// pdn::stamp_conductance, the synthesized PDN's stamp, with this grid's
  /// is_fixed/fixed_potential as its rails.  The DC cache is built from
  /// this; the load-step transient route (pgio/campaign.h) calls it
  /// directly to add capacitor companion terms before freezing the matrix.
  void stamp_conductances(la::CooBuilder& builder, la::Vector& fixed_rhs,
                          la::Vector& load_rhs) const;

  /// Solve the DC operating point, scaling every load by `load_scale`.
  /// Non-throwing on solver failure: check solution.solve_ok.
  GridSolution solve(const GridSolveOptions& options = {}) const {
    return solve_scaled(1.0, options);
  }
  GridSolution solve_scaled(double load_scale,
                            const GridSolveOptions& options = {}) const;

  /// Voltage of netlist node `name` under `solution`; false when the name
  /// is unknown.  Resolves ground aliases, shorts, and fixed slots.
  bool node_voltage(const GridSolution& solution, std::string_view name,
                    double* voltage) const;

 private:
  struct Cached;

  std::size_t find_root(std::size_t node) const;
  /// Recompute nominal potentials, floating flags, weak pins, and the
  /// stranded-load accounting from the live conductor graph (disabled
  /// groups excluded).  Runs at import and after every fault mutation: a
  /// fault can orphan a subgrid, which must be weak-pinned before the next
  /// stamp or the matrix goes singular.
  void refresh_anchoring();
  void ensure_system(const GridSolveOptions& options) const;

  const PgNetlist* netlist_;
  std::size_t unknown_count_ = 0;
  std::size_t topology_epoch_ = 0;

  mutable std::vector<std::uint32_t> parent_;  // union-find; [n] = ground
  std::vector<std::size_t> root_slot_;         // root node -> slot (kNoSlot)
  std::vector<std::uint32_t> slot_rep_;        // slot -> representative node
  std::vector<double> slot_potential_;         // fixed slots; 0 for unknowns
  std::vector<double> nominal_;                // per slot (see above)
  std::vector<std::uint8_t> floating_;         // per slot
  std::vector<std::size_t> weak_pins_;         // one slot per floating island
  std::size_t floating_nodes_ = 0;
  double floating_load_current_ = 0.0;
  double reference_potential_ = 0.0;  // max |pad|, deviation denominator

  std::vector<pdn::ConductorGroup> conductors_;
  std::vector<pdn::LoadInjection> loads_;
  std::vector<double> slot_cap_;

  mutable std::unique_ptr<Cached> cache_;
  mutable la::Vector last_solution_;
};

}  // namespace vstack::pgio
