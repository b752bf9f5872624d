// Manufactured-solution power grid: the ext_grid workload's input and its
// exact oracle.
//
// The node voltages are chosen first, from a seeded smooth droop field, and
// each load current is then derived from Kirchhoff's current law, so the
// netlist's exact DC solution is known before any solver runs.  The grid is
// a side x side mesh of equal resistors fed by a full row of pads along one
// edge (the worst-conditioned feed, so Krylov iterations dominate), in the
// IBM power-grid benchmark dialect that pgio reads.
//
// Droop field: d(x, y) = A * s(y) * (1 + eps * c(x)) with s(y) = t (2 - t),
// t = y / (side - 1), and c(x) = sum_m a_m cos(pi m x / (side - 1)) for
// m = 1..3 with sum_m |a_m| m^2 = 1.  s is concave and c has zero slope at
// both ends, so with eps = 0.05 every derived load current is positive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace vstack::e2e {

struct ManufacturedGrid {
  std::string netlist_path;
  std::string solution_path;
  std::size_t side = 0;
  std::size_t nodes = 0;
  std::size_t netlist_bytes = 0;
  double pad_volts = 0.0;
  double total_load_a = 0.0;  // sum of the derived load currents
  double min_load_a = 0.0;    // smallest derived load (must be > 0)
};

/// Write `<dir>/grid.spice` and `<dir>/grid.solution`.
ManufacturedGrid write_manufactured_grid(const std::string& dir,
                                         std::size_t side,
                                         std::uint64_t seed);

}  // namespace vstack::e2e
