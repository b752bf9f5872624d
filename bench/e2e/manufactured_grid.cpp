#include "manufactured_grid.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vstack::e2e {

namespace {

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  VS_REQUIRE(static_cast<bool>(out), "cannot write '" + path + "'");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  VS_REQUIRE(static_cast<bool>(out), "short write to '" + path + "'");
}

}  // namespace

ManufacturedGrid write_manufactured_grid(const std::string& dir,
                                         std::size_t side,
                                         std::uint64_t seed) {
  VS_REQUIRE(side >= 3, "manufactured grid needs side >= 3");
  Rng rng(seed ^ 0x6d616e7566616374ull);
  const double pad_volts = 1.8;
  const double ohms = rng.uniform(0.5, 2.0);
  const double amplitude = pad_volts * rng.uniform(0.04, 0.08);
  double a[3];
  double norm = 0.0;
  for (int m = 0; m < 3; ++m) {
    a[m] = rng.uniform(-1.0, 1.0);
    norm += std::abs(a[m]) * (m + 1) * (m + 1);
  }
  const double eps = 0.05;
  const double last = static_cast<double>(side - 1);

  std::vector<double> cx(side);
  for (std::size_t x = 0; x < side; ++x) {
    double c = 0.0;
    for (int m = 0; m < 3; ++m) {
      c += a[m] / norm *
           std::cos(std::numbers::pi * (m + 1) * static_cast<double>(x) / last);
    }
    cx[x] = c;
  }
  std::vector<double> droop(side * side);
  for (std::size_t y = 0; y < side; ++y) {
    const double t = static_cast<double>(y) / last;
    for (std::size_t x = 0; x < side; ++x) {
      droop[y * side + x] = amplitude * t * (2.0 - t) * (1.0 + eps * cx[x]);
    }
  }

  ManufacturedGrid grid;
  grid.netlist_path = dir + "/grid.spice";
  grid.solution_path = dir + "/grid.solution";
  grid.side = side;
  grid.nodes = side * side;
  grid.pad_volts = pad_volts;
  grid.min_load_a = HUGE_VAL;

  std::string net;
  std::string sol;
  net.reserve(grid.nodes * 110);
  sol.reserve(grid.nodes * 40);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "* manufactured-solution mesh %zux%zu, seed %llu\n", side,
                side, static_cast<unsigned long long>(seed));
  net += buf;
  std::size_t element = 0;
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      if (x + 1 < side) {
        std::snprintf(buf, sizeof(buf), "R%zu n1_%zu_%zu n1_%zu_%zu %.17g\n",
                      ++element, x, y, x + 1, y, ohms);
        net += buf;
      }
      if (y + 1 < side) {
        std::snprintf(buf, sizeof(buf), "R%zu n1_%zu_%zu n1_%zu_%zu %.17g\n",
                      ++element, x, y, x, y + 1, ohms);
        net += buf;
      }
    }
  }
  for (std::size_t y = 1; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      // KCL: the load drawn at a node is the net current its neighbours
      // push into it at the chosen voltages.
      const double d = droop[y * side + x];
      double sum = 0.0;
      if (x > 0) sum += d - droop[y * side + x - 1];
      if (x + 1 < side) sum += d - droop[y * side + x + 1];
      sum += d - droop[(y - 1) * side + x];
      if (y + 1 < side) sum += d - droop[(y + 1) * side + x];
      const double amps = sum / ohms;
      grid.total_load_a += amps;
      grid.min_load_a = std::min(grid.min_load_a, amps);
      std::snprintf(buf, sizeof(buf), "I%zu n1_%zu_%zu 0 %.17g\n", ++element,
                    x, y, amps);
      net += buf;
    }
  }
  for (std::size_t x = 0; x < side; ++x) {
    std::snprintf(buf, sizeof(buf), "V%zu n1_%zu_0 0 %.17g\n", ++element, x,
                  pad_volts);
    net += buf;
  }
  net += ".end\n";
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      std::snprintf(buf, sizeof(buf), "n1_%zu_%zu %.17g\n", x, y,
                    pad_volts - droop[y * side + x]);
      sol += buf;
    }
  }
  VS_REQUIRE(grid.min_load_a > 0.0,
             "manufactured field produced a non-positive load");
  grid.netlist_bytes = net.size();
  write_file(grid.netlist_path, net);
  write_file(grid.solution_path, sol);
  return grid;
}

}  // namespace vstack::e2e
