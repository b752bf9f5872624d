// google-benchmark timing of the linear-algebra kernels on PDN-shaped
// systems: CG with Jacobi vs ILU(0), per-backend SpMV, one Fig. 6 column's
// right-hand sides as single solves vs one lockstep CG run, and a full PDN
// solve.  A scoreboard after the timed runs records the backend SpMV
// throughputs and the Jacobi-vs-ILU(0) iteration-growth trend as
// telemetry gauges, so they land in BENCH_perf_solvers.json.
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "core/study.h"
#include "la/skyline_cholesky.h"
#include "la/solver.h"
#include "power/workload.h"

namespace {

using namespace vstack;

la::CsrMatrix grid_matrix(std::size_t m) {
  la::CooBuilder b(m * m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t i = r * m + c;
      b.add(i, i, 4.0);
      if (r > 0) b.add(i, i - m, -1.0);
      if (r + 1 < m) b.add(i, i + m, -1.0);
      if (c > 0) b.add(i, i - 1, -1.0);
      if (c + 1 < m) b.add(i, i + 1, -1.0);
    }
  }
  return b.build();
}

const la::Backend& backend_of(std::int64_t index) {
  return index == 0 ? la::reference_backend() : la::optimized_backend();
}

/// CSR SpMV per kernel backend.  Arg0: 0 = reference, 1 = optimized;
/// Arg1: grid edge m (n = m^2).  m = 256 is the largest bench grid
/// (65 536 unknowns, ~327 k nnz) -- the working set no longer fits in L2,
/// so the optimized backend's narrowed indices show their bandwidth win.
void BM_SpMV(benchmark::State& state) {
  const auto a = grid_matrix(static_cast<std::size_t>(state.range(1)));
  const la::Backend& backend = backend_of(state.range(0));
  const auto prepared = backend.prepare(a);
  const la::Vector x(a.size(), 1.0);
  la::Vector y(a.size());
  for (auto _ : state) {
    backend.spmv(*prepared, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(backend.name());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
}
BENCHMARK(BM_SpMV)
    ->ArgNames({"backend", "m"})
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 256})
    ->Args({1, 256});

/// Fused dot / axpy+norm kernels per backend (the CG inner loop's other
/// half) on the large-grid vector length.
void BM_DotAxpyNorm(benchmark::State& state) {
  const la::Backend& backend = backend_of(state.range(0));
  const std::size_t n = 65536;
  const la::Vector x(n, 0.5);
  la::Vector y(n, 1.0);
  for (auto _ : state) {
    const double d = backend.dot(x, y);
    const double r = backend.axpy_norm2(1e-9, x, y);
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(backend.name());
}
BENCHMARK(BM_DotAxpyNorm)->ArgNames({"backend"})->Arg(0)->Arg(1);

void BM_CgJacobi(benchmark::State& state) {
  const auto a = grid_matrix(static_cast<std::size_t>(state.range(0)));
  const la::Vector b(a.size(), 1.0);
  const auto precond = la::make_jacobi(a);
  for (auto _ : state) {
    la::Vector x;
    auto report = la::conjugate_gradient(a, b, x, *precond);
    benchmark::DoNotOptimize(report.iterations);
  }
}
BENCHMARK(BM_CgJacobi)->Arg(32)->Arg(64);

void BM_CgIlu0(benchmark::State& state) {
  const auto a = grid_matrix(static_cast<std::size_t>(state.range(0)));
  const la::Vector b(a.size(), 1.0);
  const auto precond = la::make_ilu0(a);
  for (auto _ : state) {
    la::Vector x;
    auto report = la::conjugate_gradient(a, b, x, *precond);
    benchmark::DoNotOptimize(report.iterations);
  }
}
BENCHMARK(BM_CgIlu0)->Arg(32)->Arg(64);

/// The 8-layer voltage-stacked DC system at the paper shape (8
/// converters per core), stamped with pdn's own conductance and converter
/// stamps, and the right-hand sides of one Fig. 6 column: its 11
/// interleaved imbalances 0, 0.1, ..., 1.
struct PdnColumn {
  la::CsrMatrix a;
  std::vector<la::Vector> b;
};

const PdnColumn& pdn_column() {
  static const PdnColumn column = [] {
    const auto ctx = core::StudyContext::paper_defaults();
    const std::size_t layers = 8;
    const pdn::PdnModel model(core::make_stacked(ctx, layers, ctx.base.tsv, 8),
                              ctx.layer_floorplan);
    const pdn::PdnNetwork& net = model.network();
    const pdn::FixedRails rails{net.config().supply_voltage()};
    la::CooBuilder builder(net.node_count());
    la::Vector base(net.node_count(), 0.0);
    for (const auto& group : net.conductors()) {
      pdn::stamp_conductance(builder, &base, group.node_a, group.node_b,
                             group.conductance(), rails);
    }
    for (const auto& conv : net.converters()) {
      pdn::stamp_converter(builder, &base, conv, 1.0 / conv.r_series,
                           net.config());
    }
    PdnColumn out{builder.build(), {}};
    for (int i = 0; i <= 10; ++i) {
      la::Vector b = base;
      for (const auto& load : net.build_loads(
               ctx.core_model, power::interleaved_layer_activities(
                                   layers, static_cast<double>(i) / 10.0))) {
        b[load.vdd_node] -= load.current;
        b[load.gnd_node] += load.current;
      }
      out.b.push_back(std::move(b));
    }
    return out;
  }();
  return column;
}

/// One Fig. 6 column as 11 cold CG + ILU(0) solves on one bound Solver --
/// the baseline BM_CgLockstepPdnColumn is measured against.
void BM_CgIlu0PdnColumn(benchmark::State& state) {
  const PdnColumn& column = pdn_column();
  la::SolveOptions options;
  options.backend = la::BackendChoice::Reference;
  la::Solver solver(column.a, options);
  for (auto _ : state) {
    for (const la::Vector& b : column.b) {
      la::Vector x;
      const auto report = solver.solve(b, x, pdn::PdnSolveOptions{}.iterative);
      benchmark::DoNotOptimize(x.data());
      benchmark::DoNotOptimize(report.iterations);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(column.b.size()));
}
BENCHMARK(BM_CgIlu0PdnColumn)->Unit(benchmark::kMillisecond);

/// The same 11 right-hand sides in one lockstep CG run (the batch
/// la::Solver::solve): every x keeps the bits of its single solve.
void BM_CgLockstepPdnColumn(benchmark::State& state) {
  const PdnColumn& column = pdn_column();
  la::SolveOptions options;
  options.backend = la::BackendChoice::Reference;
  la::Solver solver(column.a, options);
  for (auto _ : state) {
    std::vector<la::Vector> x(column.b.size());
    const auto reports =
        solver.solve(column.b, x, pdn::PdnSolveOptions{}.iterative);
    benchmark::DoNotOptimize(x.data());
    benchmark::DoNotOptimize(reports.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(column.b.size()));
}
BENCHMARK(BM_CgLockstepPdnColumn)->Unit(benchmark::kMillisecond);

/// Repeated-solve cost through the la::Solver handle (prepared matrix,
/// cached preconditioner, zero-alloc workspace) -- the PDN cache's shape.
void BM_SolverHandleResolve(benchmark::State& state) {
  const auto a = grid_matrix(static_cast<std::size_t>(state.range(0)));
  const la::Vector b(a.size(), 1.0);
  la::Solver solver(a);
  for (auto _ : state) {
    la::Vector x;
    auto report = solver.solve(b, x);
    benchmark::DoNotOptimize(report.iterations);
  }
}
BENCHMARK(BM_SolverHandleResolve)->Arg(32)->Arg(64);

void BM_SkylineCholeskyFactor(benchmark::State& state) {
  const auto a = grid_matrix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    la::ReorderedCholesky chol(a);
    benchmark::DoNotOptimize(chol.envelope_size());
  }
}
BENCHMARK(BM_SkylineCholeskyFactor)->Arg(32)->Arg(64);

void BM_SkylineCholeskyResolve(benchmark::State& state) {
  // Per-RHS cost once factored -- the transient engine's inner loop.
  const auto a = grid_matrix(static_cast<std::size_t>(state.range(0)));
  const la::ReorderedCholesky chol(a);
  const la::Vector b(a.size(), 1.0);
  for (auto _ : state) {
    auto x = chol.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SkylineCholeskyResolve)->Arg(32)->Arg(64);

void BM_FullPdnSolve(benchmark::State& state) {
  const auto ctx = core::StudyContext::paper_defaults();
  auto cfg = core::make_stacked(ctx, static_cast<std::size_t>(state.range(0)),
                                ctx.base.tsv, 8);
  pdn::PdnModel model(cfg, ctx.layer_floorplan);
  const auto loads = model.network().build_loads(
      ctx.core_model,
      power::interleaved_layer_activities(
          static_cast<std::size_t>(state.range(0)), 0.5));
  for (auto _ : state) {
    auto sol = model.solve(loads);
    benchmark::DoNotOptimize(sol.max_node_deviation_fraction);
  }
}
BENCHMARK(BM_FullPdnSolve)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Post-run scoreboard: pins the headline numbers into telemetry gauges so
/// BENCH_perf_solvers.json carries them as a machine-readable trajectory
/// (the google-benchmark console table is not part of the artifact).
void scoreboard() {
  using vstack::bench::print_header;
  using vstack::bench::print_note;

  // Backend SpMV throughput on the largest bench grid (m = 256).
  print_header("perf_solvers", "backend scoreboard");
  const auto a = grid_matrix(256);
  const la::Vector x(a.size(), 1.0);
  double mnnz[2] = {0.0, 0.0};
  for (int bi = 0; bi < 2; ++bi) {
    const la::Backend& backend = backend_of(bi);
    const auto prepared = backend.prepare(a);
    la::Vector y(a.size());
    backend.spmv(*prepared, x, y);  // warm caches
    std::size_t reps = 0;
    const double t0 = telemetry::monotonic_seconds();
    double elapsed = 0.0;
    while (elapsed < 0.2) {
      for (int k = 0; k < 16; ++k) backend.spmv(*prepared, x, y);
      reps += 16;
      elapsed = telemetry::monotonic_seconds() - t0;
    }
    mnnz[bi] = static_cast<double>(reps) * static_cast<double>(a.nnz()) /
               elapsed / 1e6;
    print_note(std::string("spmv ") + backend.name() + ": " +
               std::to_string(mnnz[bi]) + " Mnnz/s");
  }
  const double speedup = mnnz[0] > 0.0 ? mnnz[1] / mnnz[0] : 0.0;
  print_note("spmv speedup optimized/reference: " + std::to_string(speedup) +
             "x (grid m=256, " + std::to_string(a.nnz()) + " nnz)");
  telemetry::Gauge("bench.spmv.reference.mnnz_per_s").set(mnnz[0]);
  telemetry::Gauge("bench.spmv.optimized.mnnz_per_s").set(mnnz[1]);
  telemetry::Gauge("bench.spmv.optimized_speedup").set(speedup);

  // Preconditioner iteration growth across grid resolutions: Jacobi (the
  // degradation floor) vs ILU(0), the bound tier.  ILU(0) must hold the
  // growth far below Jacobi's (the docs/linear_algebra.md tier argument
  // in numbers).
  static const telemetry::Gauge g_jac_32("bench.cg.iters.jacobi.m32");
  static const telemetry::Gauge g_jac_64("bench.cg.iters.jacobi.m64");
  static const telemetry::Gauge g_jac_96("bench.cg.iters.jacobi.m96");
  static const telemetry::Gauge g_ilu0_32("bench.cg.iters.ilu0.m32");
  static const telemetry::Gauge g_ilu0_64("bench.cg.iters.ilu0.m64");
  static const telemetry::Gauge g_ilu0_96("bench.cg.iters.ilu0.m96");
  const telemetry::Gauge* jac_gauges[] = {&g_jac_32, &g_jac_64, &g_jac_96};
  const telemetry::Gauge* ilu0_gauges[] = {&g_ilu0_32, &g_ilu0_64, &g_ilu0_96};
  const std::size_t grids[] = {32, 64, 96};
  for (int gi = 0; gi < 3; ++gi) {
    const auto m = grids[gi];
    const auto grid = grid_matrix(m);
    const la::Vector rhs(grid.size(), 1.0);
    const auto jacobi = la::make_jacobi(grid);
    const auto ilu0 = la::make_ilu0(grid);
    la::Vector xj, xi;
    const auto rj = la::conjugate_gradient(grid, rhs, xj, *jacobi);
    const auto ri = la::conjugate_gradient(grid, rhs, xi, *ilu0);
    jac_gauges[gi]->set(static_cast<double>(rj.iterations));
    ilu0_gauges[gi]->set(static_cast<double>(ri.iterations));
    print_note("cg iterations m=" + std::to_string(m) +
               ": jacobi=" + std::to_string(rj.iterations) +
               " ilu0=" + std::to_string(ri.iterations));
  }
}

}  // namespace

// Expanded BENCHMARK_MAIN so the BenchReport artifact wraps the run.
int main(int argc, char** argv) {
  const vstack::bench::BenchReport bench_report("perf_solvers");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  scoreboard();
  return 0;
}
