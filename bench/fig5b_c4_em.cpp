// Regenerates the paper's Fig. 5b: normalized power-supply C4 pad EM-free
// MTTF versus stacked layer count, for regular PDNs with 25/50/75/100% of
// pad sites allocated to power and the voltage-stacked PDN.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/sweeps.h"

int main() {
  const vstack::bench::BenchReport bench_report("fig5b_c4_em");
  using namespace vstack;

  bench::print_header("Fig 5b",
                      "Normalized C4 EM-free MTTF vs stacked layers "
                      "(all values / 2-layer V-S PDN)");
  const auto ctx = core::StudyContext::paper_defaults();
  const core::SweepOptions paper_shapes;  // 2, 4, 6 and 8 layers
  const auto rows = core::SweepRunner(ctx, paper_shapes).fig5b();

  TextTable t({"Layers", "Reg 25%", "Reg 50%", "Reg 75%", "Reg 100%",
               "V-S (32 Vdd pads/core)"});
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.layers), TextTable::num(r.reg_25, 3),
               TextTable::num(r.reg_50, 3), TextTable::num(r.reg_75, 3),
               TextTable::num(r.reg_100, 3), TextTable::num(r.vs, 3)});
  }
  t.print(std::cout);

  const auto& r8 = rows.back();
  bench::print_note("V-S C4 lifetime is layer-count independent (stacking "
                    "adds no pads and no off-chip current)");
  bench::print_note("8-layer V-S / regular(100% power C4): " +
                    TextTable::num(r8.vs / r8.reg_100, 2) +
                    "x; / regular(25%): " +
                    TextTable::num(r8.vs / r8.reg_25, 2) +
                    "x (paper: gap up to 5x; even 100% allocation stays far "
                    "inferior to V-S)");
  return 0;
}
