#include "la/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/log.h"
#include "la/dense_lu.h"
#include "telemetry/telemetry.h"

namespace vstack::la {

namespace {

/// Largest system the dense-LU fallback factorizes; anything bigger skips
/// it (a dense factorization would not fit in memory).
constexpr std::size_t kDenseFallbackMaxSize = 4000;

// Solve telemetry: one attempt == one step executed (CG, then dense LU), so
// attempts - calls counts how often CG was not enough.
const telemetry::Counter t_calls("la.solve.calls");
const telemetry::Counter t_attempts("la.solve.attempts");
const telemetry::Counter t_attempts_failed("la.solve.attempts_failed");
const telemetry::Counter t_iterations("la.solve.iterations");
const telemetry::Counter t_converged("la.solve.converged");
const telemetry::Counter t_failed("la.solve.failed");
const telemetry::Gauge t_last_residual("la.solve.last_residual");
const telemetry::Histogram t_attempt_iters(
    "la.solve.attempt_iterations",
    {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0});

// Handle-lifecycle telemetry: binds counts Solver constructions; the
// per-backend solve counters show which kernel set actually ran.
const telemetry::Counter t_binds("la.solver.binds");
const telemetry::Counter t_solves_reference("la.solver.solves.reference");
const telemetry::Counter t_solves_optimized("la.solver.solves.optimized");

bool all_finite(const Vector& v) {
  for (const double d : v) {
    if (!std::isfinite(d)) return false;
  }
  return true;
}

double relative_residual(const CsrMatrix& a, const Vector& b,
                         const Vector& x) {
  const double b_norm = norm2(b);
  if (b_norm == 0.0) return norm2(a.multiply(x));
  return norm2(subtract(b, a.multiply(x))) / b_norm;
}

/// ILU(0), or Jacobi when ILU(0) cannot factor -- e.g. a structurally zero
/// diagonal on a fault-damaged matrix.
std::unique_ptr<Preconditioner> build_precond(const CsrMatrix& a,
                                              std::string& label) {
  try {
    label = "ilu0";
    return make_ilu0(a);
  } catch (const Error&) {
    VS_LOG_WARN("ILU(0) factorization unavailable; using Jacobi");
  }
  label = "jacobi";
  return make_jacobi(a);
}

/// Appends one attempt to `report`, whose base fields then describe it, and
/// to the la.solve.* telemetry.
void record(SolveReport& report, std::string method, bool ok,
            std::size_t iterations, double residual) {
  t_attempts.add();
  if (!ok) t_attempts_failed.add();
  t_iterations.add(static_cast<double>(iterations));
  t_attempt_iters.record(static_cast<double>(iterations));
  t_last_residual.set(residual);
  report.attempts.push_back({std::move(method), ok, iterations, residual});
  report.iterations = iterations;
  report.residual_norm = residual;
  report.converged = ok;
}

/// Dense LU of `a`, accepted only when its residual checks out; x receives
/// the solution on success.
void solve_dense(const CsrMatrix& a, const Vector& b, Vector& x,
                 double accept_tolerance, const Deadline& deadline,
                 SolveReport& report) {
  try {
    const DenseLu lu(DenseMatrix::from_csr(a), deadline);
    Vector sol = lu.solve(b);
    const double res = relative_residual(a, b, sol);
    const bool ok =
        all_finite(sol) && std::isfinite(res) && res < accept_tolerance;
    if (ok) x = std::move(sol);
    record(report, "dense-lu", ok, 1, res);
  } catch (const Error&) {
    // A deadline firing mid-factorization also surfaces as Error; tell the
    // two apart so TIMEOUT is never misreported as a singular system.
    const bool aborted = deadline.expired();
    if (aborted) report.deadline_expired = true;
    record(report, aborted ? "dense-lu(aborted)" : "dense-lu(singular)",
           false, 0, std::numeric_limits<double>::infinity());
  }
}

/// The caller's CG options with stagnation detection on: a hopeless CG run
/// hands over to dense LU instead of burning its whole budget.
IterativeOptions cg_options(const IterativeOptions& iterative) {
  IterativeOptions options = iterative;
  if (options.stagnation_window == 0) {
    options.stagnation_window =
        std::max<std::size_t>(100, options.max_iterations / 20);
  }
  return options;
}

}  // namespace

Solver::Solver(const CsrMatrix& a, SolveOptions options)
    : a_(&a), backend_(&resolve_backend(options.backend)) {
  VS_SPAN("la.solver.bind");
  t_binds.add();
  prepared_ = backend_->prepare(a);
  precond_ = build_precond(a, precond_label_);
}

SolveReport Solver::solve(const Vector& b, Vector& x,
                          const IterativeOptions& iterative) {
  VS_SPAN("la.solve");
  const Vector x0 = begin_solve(b, x);
  const SolveReport cg =
      conjugate_gradient(*a_, b, x, *precond_, cg_options(iterative),
                         {backend_, prepared_.get(), &workspace_});
  return finish_solve(b, x, x0, cg, iterative);
}

std::vector<SolveReport> Solver::solve(std::span<const Vector> b,
                                       std::span<Vector> x,
                                       const IterativeOptions& iterative) {
  VS_REQUIRE(b.size() == x.size(), "solve: one guess per right-hand side");
  std::vector<SolveReport> reports;
  reports.reserve(b.size());
  if (backend_ != &reference_backend()) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      reports.push_back(solve(b[i], x[i], iterative));
    }
    return reports;
  }
  VS_SPAN("la.solve");
  std::vector<Vector> x0;
  x0.reserve(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    x0.push_back(begin_solve(b[i], x[i]));
  }
  const std::vector<SolveReport> cg = detail::lockstep_cg(
      *a_, *prepared_, *precond_, b, x, cg_options(iterative));
  for (std::size_t i = 0; i < b.size(); ++i) {
    reports.push_back(finish_solve(b[i], x[i], x0[i], cg[i], iterative));
  }
  return reports;
}

Vector Solver::begin_solve(const Vector& b, Vector& x) const {
  t_calls.add();
  (backend_ == &optimized_backend() ? t_solves_optimized : t_solves_reference)
      .add();
  const std::size_t n = a_->size();
  VS_REQUIRE(b.size() == n, "solve: rhs size mismatch");
  if (x.size() == n) return x;
  x.assign(n, 0.0);
  return {};  // a zero guess needs no copy to be restored
}

SolveReport Solver::finish_solve(const Vector& b, Vector& x, const Vector& x0,
                                 const SolveReport& cg,
                                 const IterativeOptions& iterative) const {
  const std::size_t n = a_->size();
  SolveReport report;
  report.deadline_expired = cg.deadline_expired;
  record(report, "cg+" + precond_label_, cg.converged && all_finite(x),
         cg.iterations, cg.residual_norm);

  // An expired deadline means the caller wants out, not a harder solver.
  const Deadline& deadline = iterative.deadline;
  const bool dense = !report.converged && !deadline.expired() &&
                     n <= kDenseFallbackMaxSize;
  if (dense) {
    VS_LOG_WARN("CG failed; retrying with dense LU");
    solve_dense(*a_, b, x,
                std::max(1e-8, 100.0 * iterative.relative_tolerance),
                deadline, report);
  }
  if (report.converged) {
    t_converged.add();
    return report;
  }

  t_failed.add();
  // Never hand back a diverged/NaN iterate.
  if (x0.empty()) {
    fill(x, 0.0);
  } else {
    x = x0;
  }
  std::ostringstream diag;
  if (deadline.expired()) {
    report.deadline_expired = true;
    diag << "solve aborted: deadline expired";
    if (dense) diag << " after " << report.attempts.size() << " attempt(s)";
  } else {
    diag << "no solver converged after " << report.attempts.size()
         << " attempt(s) (last residual " << report.residual_norm
         << "); system is likely singular or structurally infeasible";
    if (n > kDenseFallbackMaxSize) {
      diag << " (dense fallback skipped: " << n << " unknowns)";
    }
  }
  report.diagnostic = diag.str();
  return report;
}

}  // namespace vstack::la
