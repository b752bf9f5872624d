// Structural builder for the 3D PDN resistive network.
//
// Translates a StackupConfig plus a layer floorplan into nodes, lumped
// conductor groups, load injections and converter elements.  Layer 0 is the
// package (C4) side.  In the voltage-stacked topology, "rail r" (r = 0..N)
// denotes the series chain: rail 0 is the board ground (layer 0's Gnd net),
// rail l+1 is layer l's Vdd net (stitched to layer l+1's Gnd net by
// recycling TSVs), rail N is fed by through-vias at N * Vdd.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "floorplan/floorplan.h"
#include "pdn/stackup.h"

namespace vstack::pdn {

enum class ConductorKind {
  GridStrap,     // on-chip metal segment
  PackageVdd,    // lumped package resistance, supply side
  PackageGnd,    // lumped package resistance, ground side
  C4Vdd,         // Vdd bump (regular topology)
  C4Gnd,         // ground bump (both topologies)
  TsvVdd,        // inter-layer Vdd TSV (regular)
  TsvGnd,        // inter-layer ground TSV (regular)
  RecyclingTsv,  // rail-stitching TSV (voltage-stacked)
  ThroughVia,    // pad + through-via chain to the top rail (voltage-stacked)
  Leakage        // injected fault: resistive short from a node to ground
};

/// `count` identical conductors in parallel between two nodes, stamped as a
/// single lumped resistance.  For EM accounting, each physical conductor
/// additionally consists of `em_segments` series segments that all carry the
/// per-conductor current (through-vias cross layer_count-1 interfaces).
struct ConductorGroup {
  ConductorKind kind = ConductorKind::GridStrap;
  std::size_t node_a = 0;
  std::size_t node_b = 0;
  double unit_resistance = 0.0;
  std::size_t count = 1;
  std::size_t em_segments = 1;

  /// Lumped conductance of the group [S]: count / unit_resistance.
  double conductance() const {
    return static_cast<double>(count) / unit_resistance;
  }
};

/// Ideal current-source load drawing `current` from a Vdd node into the
/// layer's ground node (VoltSpot's load model).
struct LoadInjection {
  std::size_t vdd_node = 0;
  std::size_t gnd_node = 0;
  double current = 0.0;
};

/// One push-pull SC converter instance: regulates `out` toward the midpoint
/// of `top` and `bottom` through r_series (stamped as the symmetric PSD
/// block (1/r) * v v^T with v = (1/2, 1/2, -1) on (top, bottom, out)).
struct ConverterInstance {
  std::size_t top = 0;
  std::size_t bottom = 0;
  std::size_t out = 0;
  double r_series = 0.0;
  std::size_t core = 0;
  std::size_t level = 0;  // intermediate rail index (1..N-1)
  bool enabled = true;    // false = stuck-off fault: not stamped, no current
};

/// Fixed-potential sentinels used in ConductorGroup node slots.
inline constexpr std::size_t kFixedSupply = static_cast<std::size_t>(-1);
inline constexpr std::size_t kFixedGround = static_cast<std::size_t>(-2);

/// The synthesized network's fixed nodes: kFixedSupply at the stack's
/// supply voltage, kFixedGround at 0.  stamp_conductance accepts any node
/// set with these two members (pgio::ImportedGrid is the other).
struct FixedRails {
  double supply_voltage = 0.0;

  static bool is_fixed(std::size_t node) {
    return node == kFixedSupply || node == kFixedGround;
  }
  double fixed_potential(std::size_t node) const {
    return node == kFixedSupply ? supply_voltage : 0.0;
  }
};

// --- Stamps: one definition of each rule the DC system, the transient step
// system and the imported grid share.  A stamp emits matrix entries through
// `matrix.add(i, j, v)` (a la::CooBuilder, or a caller's triplet list) and
// adds its right-hand-side terms into `*rhs`, which may be null.  The CSR
// merge sums duplicate entries in emission order, so the order each stamp
// documents is part of its contract: output bits depend on it.

/// Conductance g [S] between nodes a and b, a fixed end folded into the
/// right-hand side (Dirichlet elimination).  `rails` says which nodes are
/// fixed and at what potential (FixedRails, or any type with is_fixed(i)
/// and fixed_potential(i)).  Emits, in order:
///   both ends unknown: (a,a,+g) (b,b,+g) (a,b,-g) (b,a,-g);
///   one end fixed:     (free,free,+g), then rhs[free] += g * V_fixed;
///   both ends fixed:   nothing.
template <class Matrix, class Rails>
void stamp_conductance(Matrix&& matrix, std::vector<double>* rhs,
                       std::size_t a, std::size_t b, double g,
                       const Rails& rails) {
  const bool a_fixed = rails.is_fixed(a);
  const bool b_fixed = rails.is_fixed(b);
  if (a_fixed && b_fixed) return;
  if (!a_fixed && !b_fixed) {
    matrix.add(a, a, g);
    matrix.add(b, b, g);
    matrix.add(a, b, -g);
    matrix.add(b, a, -g);
    return;
  }
  const std::size_t free_node = a_fixed ? b : a;
  matrix.add(free_node, free_node, g);
  if (rhs != nullptr) {
    (*rhs)[free_node] += g * rails.fixed_potential(a_fixed ? a : b);
  }
}

/// Converter `conv` at series conductance g = 1/R [S], under `config`'s
/// ConverterReference.  Emits, in order:
///   AdjacentRails: the symmetric PSD block (1/R) v v^T, v = (1/2, 1/2, -1)
///     on (top, bottom, out), row by row: (top,top) (top,bottom) (top,out)
///     (bottom,top) ... (out,out);
///   IdealRails: (out,out,+g), then rhs[out] += g * level * vdd -- a
///     resistor R from the output to its nominal rail.
template <class Matrix>
void stamp_converter(Matrix&& matrix, std::vector<double>* rhs,
                     const ConverterInstance& conv, double g,
                     const StackupConfig& config) {
  if (config.converter_reference == ConverterReference::IdealRails) {
    matrix.add(conv.out, conv.out, g);
    if (rhs != nullptr) {
      (*rhs)[conv.out] += g * static_cast<double>(conv.level) * config.vdd;
    }
    return;
  }
  const std::size_t idx[3] = {conv.top, conv.bottom, conv.out};
  const double v[3] = {0.5, 0.5, -1.0};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) matrix.add(idx[i], idx[j], g * v[i] * v[j]);
  }
}

/// The potential converter `conv` regulates its output toward [V], as
/// stamp_converter models it: level * vdd under IdealRails, the midpoint of
/// its input rails' potentials under AdjacentRails.
inline double converter_reference(const ConverterInstance& conv,
                                  const StackupConfig& config, double v_top,
                                  double v_bottom) {
  return config.converter_reference == ConverterReference::IdealRails
             ? static_cast<double>(conv.level) * config.vdd
             : 0.5 * (v_top + v_bottom);
}

/// EM stress of the conductors of `group` at terminal potentials v_a and
/// v_b [V]: `carriers` of them carry `current` [A] each, the rest none.
struct ConductorStress {
  double current = 0.0;
  std::size_t carriers = 0;
};

/// Every conductor of a group carries |v_a - v_b| / unit_resistance.  In a
/// TSV group (TsvVdd, TsvGnd, RecyclingTsv) only min(count,
/// tsv_crowding_share) of them share the group's current (current crowding
/// at the entry point; see PdnParameters), so each of those carries
/// count / carriers times as much.
inline ConductorStress conductor_stress(const ConductorGroup& group,
                                        double v_a, double v_b,
                                        const PdnParameters& params) {
  const double unit = std::abs(v_a - v_b) / group.unit_resistance;
  const bool tsv = group.kind == ConductorKind::TsvVdd ||
                   group.kind == ConductorKind::TsvGnd ||
                   group.kind == ConductorKind::RecyclingTsv;
  if (!tsv) return {unit, group.count};
  const std::size_t sharing = std::min(group.count, params.tsv_crowding_share);
  return {unit * static_cast<double>(group.count) /
              static_cast<double>(sharing),
          sharing};
}

/// Where a grid node sits: its layer, its net and its cell.
struct GridNodeLocation {
  std::size_t layer = 0;
  bool vdd_net = false;
  std::size_t cell = 0;
};

/// Nominal potentials of one layer's two nets [V].
struct LayerRails {
  double gnd = 0.0;
  double vdd = 0.0;
};

class PdnNetwork {
 public:
  PdnNetwork(const StackupConfig& config,
             const floorplan::Floorplan& floorplan);

  const StackupConfig& config() const { return config_; }
  const floorplan::Floorplan& floorplan() const { return floorplan_; }

  std::size_t node_count() const { return node_count_; }
  std::size_t package_vdd_node() const { return 0; }
  std::size_t package_gnd_node() const { return 1; }

  /// Grid node indices; layer in [0, N), cell in [0, nx*ny).
  std::size_t vdd_node(std::size_t layer, std::size_t cell) const;
  std::size_t gnd_node(std::size_t layer, std::size_t cell) const;
  /// The inverse of vdd_node/gnd_node for a grid node index.
  GridNodeLocation locate(std::size_t node) const;

  const std::vector<ConductorGroup>& conductors() const { return conductors_; }
  const std::vector<ConverterInstance>& converters() const {
    return converters_;
  }

  /// Monotone counter bumped by every topology mutation below.  Consumers
  /// that cache anything derived from the conductor/converter lists (the
  /// assembled MNA matrix, ILU factors, island maps) must key their cache on
  /// this and rebuild on mismatch.
  std::size_t topology_epoch() const { return topology_epoch_; }

  /// Nominal (unloaded) potentials of layer `layer`'s nets [V].  Regular
  /// topology: Vdd nets at vdd, Gnd nets at 0.  Stacked: layer l's Gnd net
  /// at l*vdd, its Vdd net at (l+1)*vdd.
  LayerRails nominal_rails(std::size_t layer) const;

  /// Nominal potential of a node [V]: nominal_rails() for grid nodes, and
  /// also the package nodes and the kFixedSupply/kFixedGround sentinels.
  double nominal_potential(std::size_t node) const;

  /// VoltSpot's voltage-noise metric: the worst |v[node] - nominal rail|
  /// over the grid nodes, as a fraction of vdd.  `v` is indexed by node and
  /// may run past node_count() (the transient's extra unknowns are
  /// ignored).  When `per_layer` is non-null it receives each layer's own
  /// worst (size layer_count).
  double max_node_deviation_fraction(
      const std::vector<double>& v,
      std::vector<double>* per_layer = nullptr) const;

  // --- Fault-injection mutators (see pdn/fault.h) --------------------------
  // All bump the topology epoch.  Conductor indices refer to conductors();
  // groups reduced to count 0 stay in the list as inert placeholders so
  // indices remain stable across fault application.

  /// Remove `units` parallel conductors from group `index` (the whole group
  /// when units >= count).
  void remove_conductor_units(std::size_t index, std::size_t units);

  /// Multiply group `index`'s per-unit resistance by `factor` (> 0); models
  /// EM-thinned or partially-voided conductors.
  void scale_conductor_resistance(std::size_t index, double factor);

  /// Stuck-off converter phase: converter `index` stops stamping and sources
  /// no current.  Its converter_currents slot reads 0.
  void disable_converter(std::size_t index);

  /// Overwrite converter `index`'s series resistance (supervisor actions:
  /// interleaved-phase rebalancing and switching-frequency retargeting model
  /// a stronger phase as a lower R_series).
  void set_converter_r_series(std::size_t index, double r_series);

  /// Append a new enabled converter at the same terminals/level as converter
  /// `index` with the given series resistance; models a bypass linear
  /// regulator engaged at a (possibly stuck-off) phase's site.  Returns the
  /// new converter's index.
  std::size_t add_converter_clone(std::size_t index, double r_series);

  /// Add a resistive leakage path from `node` to board ground (defect
  /// short); appends a ConductorKind::Leakage group.
  void add_leakage_to_ground(std::size_t node, double resistance);

  /// Build per-cell loads for the given per-layer core activities.
  /// activities[l] applies to every core of layer l.
  std::vector<LoadInjection> build_loads(
      const power::CorePowerModel& model,
      const std::vector<double>& layer_activities) const;

  /// Build loads from explicit per-layer, per-core activity factors
  /// (activities[l][c]); used for workload-schedule studies.
  std::vector<LoadInjection> build_loads_per_core(
      const power::CorePowerModel& model,
      const std::vector<std::vector<double>>& core_activities) const;

  /// Heterogeneous stacks (e.g. memory-on-logic): each layer has its own
  /// power model and floorplan (all floorplans must share the die
  /// footprint).  activities[l] applies to every tile of layer l.
  std::vector<LoadInjection> build_loads_layered(
      const std::vector<const power::CorePowerModel*>& models,
      const std::vector<const floorplan::Floorplan*>& floorplans,
      const std::vector<double>& layer_activities) const;

  /// Deterministically distribute `count` items over `slots` slots; slot j
  /// receives floor((j+1)k/m) - floor(jk/m) items.  Exposed for tests.
  static std::vector<std::size_t> distribute(std::size_t count,
                                             std::size_t slots);

 private:
  void build_grid_straps();
  void build_package();
  void build_regular_topology();
  void build_stacked_topology();
  std::vector<std::size_t> core_cells(std::size_t core) const;

  StackupConfig config_;
  const floorplan::Floorplan& floorplan_;
  std::size_t node_count_ = 0;
  std::size_t topology_epoch_ = 0;
  std::vector<ConductorGroup> conductors_;
  std::vector<ConverterInstance> converters_;
};

}  // namespace vstack::pdn
