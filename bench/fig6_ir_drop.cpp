// Regenerates the paper's Fig. 6: maximum on-chip voltage noise (%Vdd) of
// the 8-layer processor versus workload imbalance, for V-S PDNs with
// 2/4/6/8 converters per core (Few TSV) and regular-PDN reference lines
// (Dense/Sparse/Few TSV, worst case all-layers-active).  Points where a
// converter would exceed its 100 mA limit are skipped, as in the paper.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/sweeps.h"

int main() {
  const vstack::bench::BenchReport bench_report("fig6_ir_drop");
  using namespace vstack;

  bench::print_header("Fig 6",
                      "Maximum on-chip voltage noise (%Vdd), 8-layer stack");
  const auto ctx = core::StudyContext::paper_defaults();

  std::vector<double> imbalances;
  for (int x = 0; x <= 100; x += 10) imbalances.push_back(x / 100.0);
  const core::SweepOptions paper_shapes;  // 8 layers, 2/4/6/8 per core
  const auto result = core::SweepRunner(ctx, paper_shapes).fig6(imbalances);

  TextTable t({"Imbalance", "V-S 2/core", "V-S 4/core", "V-S 6/core",
               "V-S 8/core"});
  for (const auto& row : result.rows) {
    std::vector<std::string> cells{TextTable::percent(row.imbalance, 0)};
    for (const auto& v : row.vs_noise) {
      cells.push_back(
          bench::opt_cell(v.has_value(),
                          v ? TextTable::percent(*v, 2) : ""));
    }
    t.add_row(std::move(cells));
  }
  t.print(std::cout);

  bench::print_note("regular-PDN references (worst case, all layers active):");
  bench::print_note("  Dense TSV: " + TextTable::percent(result.reg_dense, 2) +
                    "   Sparse TSV: " +
                    TextTable::percent(result.reg_sparse, 2) +
                    "   Few TSV: " + TextTable::percent(result.reg_few, 2));
  bench::print_note("'-' marks points where the per-converter load exceeds "
                    "the 100 mA limit (skipped in the paper's figure)");
  bench::print_note("iso-area comparison: V-S 8 conv/core + Few TSV vs "
                    "regular Dense TSV; the paper reports a ~50% crossover "
                    "and a 0.75% Vdd penalty at the 65% mean imbalance");
  return 0;
}
