// Ablation: electrical grid resolution.
//
// The pre-RTL grid resolution trades fidelity for solve time.  This bench
// sweeps the per-layer grid and reports the noise metric plus solve cost
// proxies, showing the default 32x32 sits on the converged plateau.  The
// CG iterations column is the ILU(0)-preconditioned cold solve of each
// grid, so it also shows how the iteration count grows as the grid
// refines.
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/study.h"
#include "power/workload.h"

int main() {
  const vstack::bench::BenchReport bench_report("ablation_grid_resolution");
  using namespace vstack;

  bench::print_header("Ablation",
                      "Grid resolution vs noise metric (8-layer V-S, "
                      "8 conv/core, 50% imbalance)");
  const auto ctx = core::StudyContext::paper_defaults();

  TextTable t({"Grid", "Unknowns", "Max noise (%Vdd)", "CG iterations",
               "Solve time (ms)"});
  for (const std::size_t n : {8u, 16u, 24u, 32u, 48u}) {
    auto cfg = core::make_stacked(ctx, 8, ctx.base.tsv, 8);
    cfg.grid_nx = cfg.grid_ny = n;

    const auto t0 = std::chrono::steady_clock::now();
    pdn::PdnModel model(cfg, ctx.layer_floorplan);
    const auto loads = model.network().build_loads(
        ctx.core_model, power::interleaved_layer_activities(8, 0.5));
    const auto sol = model.solve(loads);
    const auto t1 = std::chrono::steady_clock::now();

    t.add_row({std::to_string(n) + "x" + std::to_string(n),
               std::to_string(model.network().node_count()),
               TextTable::percent(sol.max_node_deviation_fraction, 2),
               std::to_string(sol.report.iterations),
               std::to_string(std::chrono::duration_cast<
                                  std::chrono::milliseconds>(t1 - t0)
                                  .count())});
  }
  t.print(std::cout);
  return 0;
}
