// Regenerates the paper's Fig. 5a: normalized power-supply TSV EM-free MTTF
// versus stacked layer count, for regular PDNs with Dense/Sparse/Few TSV
// allocations and the voltage-stacked PDN with Few TSVs.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/sweeps.h"

int main() {
  const vstack::bench::BenchReport bench_report("fig5a_tsv_em");
  using namespace vstack;

  bench::print_header("Fig 5a",
                      "Normalized TSV EM-free MTTF vs stacked layers "
                      "(all values / 2-layer V-S PDN)");
  const auto ctx = core::StudyContext::paper_defaults();
  const core::SweepOptions paper_shapes;  // 2, 4, 6 and 8 layers
  const auto rows = core::SweepRunner(ctx, paper_shapes).fig5a();

  TextTable t({"Layers", "Reg Dense", "Reg Sparse", "Reg Few", "V-S Few"});
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.layers), TextTable::num(r.reg_dense, 3),
               TextTable::num(r.reg_sparse, 3), TextTable::num(r.reg_few, 3),
               TextTable::num(r.vs_few, 3)});
  }
  t.print(std::cout);

  const auto& r2 = rows.front();
  const auto& r8 = rows.back();
  bench::print_note("regular Few degradation 2->8 layers: " +
                    TextTable::percent(1.0 - r8.reg_few / r2.reg_few, 1) +
                    " (paper: up to 84%)");
  bench::print_note("8-layer V-S / regular at the same (Few) topology: " +
                    TextTable::num(r8.vs_few / r8.reg_few, 2) +
                    "x (paper: more than 3x); / best regular allocation: " +
                    TextTable::num(r8.vs_few /
                                       std::max({r8.reg_dense, r8.reg_sparse,
                                                 r8.reg_few}),
                                   2) +
                    "x");
  bench::print_note("denser TSV allocations improve the regular PDN only "
                    "marginally (current crowding; see EXPERIMENTS.md)");
  return 0;
}
