// Regenerates the paper's Fig. 7: box-plot statistics of per-sample core
// power for each PARSEC 2.0 application (1000 samples of 2k cycles each),
// plus each application's maximum workload-imbalance ratio.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/sweeps.h"

int main() {
  const vstack::bench::BenchReport bench_report("fig7_workload_imbalance");
  using namespace vstack;

  bench::print_header("Fig 7",
                      "Per-application power distribution (box-plot stats) "
                      "and max workload imbalance");
  const auto ctx = core::StudyContext::paper_defaults();
  const core::SweepOptions paper_shapes;  // 1000 samples, seed 2015
  const auto campaign = core::SweepRunner(ctx, paper_shapes).fig7();

  TextTable t({"Application", "Min (W)", "P25 (W)", "Median (W)", "P75 (W)",
               "Max (W)", "Max Imbalance"});
  for (const auto& app : campaign) {
    t.add_row({app.name, TextTable::num(app.power.min, 3),
               TextTable::num(app.power.p25, 3),
               TextTable::num(app.power.median, 3),
               TextTable::num(app.power.p75, 3),
               TextTable::num(app.power.max, 3),
               TextTable::percent(app.max_imbalance, 1)});
  }
  t.print(std::cout);

  bench::print_note("mean of per-application maximum imbalance: " +
                    TextTable::percent(power::mean_max_imbalance(campaign), 1) +
                    " (paper: 65%)");
  bench::print_note("best-case application (blackscholes) stays near 10% "
                    "imbalance; the worst exceeds 90% (paper Sec. 5.2)");
  bench::print_note("activity distributions are synthetic, calibrated to "
                    "the paper's reported statistics (no gem5 traces "
                    "available); see DESIGN.md");
  return 0;
}
