// la::Solver -- the stateful front door of the linear-algebra layer.
//
// A Solver binds one CsrMatrix to one kernel Backend and owns everything a
// repeated solve against that matrix can reuse:
//
//   * the backend's prepared matrix form (32-bit-index CSR for the
//     optimized backend), built once at bind time;
//   * the preconditioner: ILU(0), or Jacobi when ILU(0) cannot factor;
//   * a KrylovWorkspace, so the CG loop allocates nothing after the first
//     solve.
//
// Every matrix the PDN, transient, imported-grid and thermal layers bind is
// a symmetric grid Laplacian, so CG is the one Krylov method.  solve() runs
// two steps:
//
//   CG from the caller's guess -> dense LU (systems up to 4000 unknowns)
//
// CG runs under the caller's iteration budget with stagnation detection;
// every step is recorded in SolveReport::attempts.  Several right-hand
// sides of one matrix can go through one call, which runs their CG in
// lockstep with the bits of one solve() each (docs/linear_algebra.md).  The bound matrix must
// outlive the Solver and must not move or change values while bound;
// callers that rebuild their matrix (topology epoch bumps) rebuild the
// Solver with it.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "la/backend.h"
#include "la/cg.h"

namespace vstack::la {

/// Preconditioner request.  Auto is the one tier: ILU(0), degrading to
/// Jacobi at bind time, with a warning, when ILU(0) cannot factor (a
/// structurally zero diagonal or a zero pivot).
enum class PrecondKind { Auto };

struct SolveOptions {
  /// One value, so no bind reads it; kept because the bench/e2e solver
  /// probe assigns it.
  PrecondKind preconditioner = PrecondKind::Auto;
  /// Kernel backend; Auto defers to default_backend() (--la-backend /
  /// $VSTACK_LA_BACKEND / reference).
  BackendChoice backend = BackendChoice::Auto;
};

class Solver {
 public:
  /// Bind `a` (which must outlive the Solver, at a stable address) and pay
  /// all per-matrix costs up front: backend preparation and the
  /// preconditioner factorization.
  explicit Solver(const CsrMatrix& a, SolveOptions options = {});

  Solver(Solver&&) = default;
  Solver& operator=(Solver&&) = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Solve A x = b: CG under `iterative`'s iteration limit, tolerance and
  /// deadline, then dense LU if CG fails on a small enough system.  x is
  /// the initial guess (a warm start, or empty for zero) and receives the
  /// solution.
  ///
  /// NON-THROWING on solver failure: check report.converged.  On failure,
  /// report.diagnostic names the reason, report.attempts holds the full
  /// trail, and x is restored to the caller's initial guess -- never NaN.
  /// (Size mismatches and other precondition violations still throw
  /// vstack::Error.)
  SolveReport solve(const Vector& b, Vector& x,
                    const IterativeOptions& iterative = {});

  /// solve(b[i], x[i], iterative) for every i, returning report i of each:
  /// every x[i] and report is what that call would give, down to the bits,
  /// the attempt trail and the diagnostic, and the la.solve.*, la.solver.*
  /// and la.cg.* counters count each right-hand side as that call would.
  /// On the reference backend the CG runs of all right-hand sides go in
  /// lockstep (la/cg.h); on any other backend this loops over solve().
  std::vector<SolveReport> solve(std::span<const Vector> b,
                                 std::span<Vector> x,
                                 const IterativeOptions& iterative = {});

  const CsrMatrix& matrix() const { return *a_; }
  const Backend& backend() const { return *backend_; }
  /// Label of the preconditioner actually built: "ilu0", or "jacobi" when
  /// ILU(0) could not factor -- attempt names embed it.
  const std::string& preconditioner_label() const { return precond_label_; }

 private:
  /// Counts one solve, checks b and sizes x; returns a copy of the
  /// caller's guess, or an empty vector when x starts from zero.
  Vector begin_solve(const Vector& b, Vector& x) const;
  /// Everything after CG: the attempt trail, dense LU when CG failed, and
  /// on failure the restored guess x0 (zero when empty) and the
  /// diagnostic.
  SolveReport finish_solve(const Vector& b, Vector& x, const Vector& x0,
                           const SolveReport& cg,
                           const IterativeOptions& iterative) const;

  const CsrMatrix* a_;
  const Backend* backend_;
  std::unique_ptr<BackendMatrix> prepared_;
  std::unique_ptr<Preconditioner> precond_;
  std::string precond_label_;
  KrylovWorkspace workspace_;
};

}  // namespace vstack::la
