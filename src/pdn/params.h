// PDN modeling parameters (the paper's Table 1) and TSV allocation
// topologies (Table 2).
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace vstack::pdn {

/// Table 1: major PDN modeling parameters.  SI units throughout.
struct PdnParameters {
  double c4_pitch = 200 * units::um;
  double c4_resistance = 10 * units::mOhm;
  double tsv_min_pitch = 10 * units::um;
  double tsv_diameter = 5 * units::um;
  double tsv_resistance = 44.539 * units::mOhm;
  double tsv_koz_side = 9.88 * units::um;
  double grid_pitch = 810 * units::um;      // per-net strap pitch
  double grid_width = 400 * units::um;      // strap width
  double grid_thickness = 0.72 * units::um; // strap thickness

  /// Lumped package resistance per supply net (beyond Table 1; VoltSpot's
  /// package model reduced to its resistive part).
  double package_resistance = 0.05 * units::mOhm;

  /// EM current-crowding limit: at a localized current entry point, only
  /// about (2*lambda+1)^2 TSVs effectively share the current, where
  /// lambda = sqrt(R_tsv / R_sheet) ~ 0.85 is the current spreading length
  /// in TSV pitches -- independent of TSV density.  This is why allocating
  /// more TSVs "only marginally increases MTTF" (paper Sec. 5.1): the
  /// hottest TSVs' current barely drops.  Within each lumped grid cell, at
  /// most this many TSVs share the cell's vertical current for EM purposes.
  std::size_t tsv_crowding_share = 9;

  double copper_resistivity = 2.2e-8;  // [Ohm m] at operating temperature

  void validate() const;

  /// Effective sheet resistance of one net's strap array in one routing
  /// direction [Ohm/square]: rho * pitch / (width * thickness).
  double sheet_resistance() const;

  /// Keep-out-zone area of a single TSV [m^2].
  double tsv_koz_area() const;
};

/// Table 2: a TSV allocation topology.
struct TsvConfig {
  std::string name;
  double effective_pitch = 0.0;   // [m] as quoted by the paper
  std::size_t tsvs_per_core = 0;  // total per core per layer interface
                                  // (split evenly between Vdd and Gnd)

  /// Fraction of a core's area consumed by keep-out zones.
  double area_overhead(const PdnParameters& params, double core_area) const;

  std::size_t vdd_tsvs_per_core() const { return tsvs_per_core / 2; }

  void validate() const;

  bool operator==(const TsvConfig&) const = default;

  /// The paper's three design points.
  static TsvConfig dense();   // conservative: 20 um pitch, 6650 TSVs/core
  static TsvConfig sparse();  // average:      40 um pitch, 1675 TSVs/core
  static TsvConfig few();     // aggressive:  240 um pitch,  110 TSVs/core
  static std::vector<TsvConfig> paper_configs();
};

}  // namespace vstack::pdn
