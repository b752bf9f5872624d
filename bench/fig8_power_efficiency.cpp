// Regenerates the paper's Fig. 8: system power efficiency of the 8-layer
// processor versus workload imbalance, for V-S PDNs with 2/4/6/8 converters
// per core and the regular-PDN baseline where SC converters provide ALL the
// power.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/sweeps.h"

int main() {
  const vstack::bench::BenchReport bench_report("fig8_power_efficiency");
  using namespace vstack;

  bench::print_header("Fig 8",
                      "System power efficiency vs workload imbalance, "
                      "8-layer stack");
  const auto ctx = core::StudyContext::paper_defaults();

  std::vector<double> imbalances;
  for (int x = 10; x <= 100; x += 10) imbalances.push_back(x / 100.0);
  const core::SweepOptions paper_shapes;  // 8 layers, 2/4/6/8 per core
  const auto result = core::SweepRunner(ctx, paper_shapes).fig8(imbalances);

  TextTable t({"Imbalance", "V-S 2/core", "V-S 4/core", "V-S 6/core",
               "V-S 8/core", "Reg + SC (all power)"});
  for (const auto& row : result.rows) {
    std::vector<std::string> cells{TextTable::percent(row.imbalance, 0)};
    for (const auto& v : row.vs_efficiency) {
      cells.push_back(bench::opt_cell(
          v.has_value(), v ? TextTable::percent(*v, 1) : ""));
    }
    cells.push_back(TextTable::percent(row.regular_sc, 1));
    t.add_row(std::move(cells));
  }
  t.print(std::cout);

  bench::print_note("efficiency decreases with imbalance (more differential "
                    "current through the converters) and with converter "
                    "count (open-loop converters burn fixed switching "
                    "parasitics); V-S stays above the regular+SC baseline");
  bench::print_note("'-' marks per-converter current limit violations");
  return 0;
}
