// la::Solver -- the stateful front door of the linear-algebra layer.
//
// A Solver binds one CsrMatrix to one kernel Backend and owns everything a
// repeated solve against that matrix can reuse:
//
//   * the backend's prepared matrix form (32-bit-index CSR for the
//     optimized backend), built once at bind time;
//   * the solver kind, from a symmetry probe that runs once at bind time,
//     not per call: CG for symmetric matrices, BiCGSTAB otherwise;
//   * the preconditioner: ILU(0), or Jacobi when ILU(0) cannot factor;
//   * a KrylovWorkspace, so the CG/BiCGSTAB loops allocate nothing after
//     the first solve.
//
// solve() runs the graceful-degradation ladder:
//
//   CG -> BiCGSTAB -> BiCGSTAB with a rebuilt, diagonally-shifted ILU ->
//   dense LU (systems up to dense_fallback_max_size unknowns)
//
// Every rung restarts from the caller's initial guess, runs under a
// per-attempt iteration budget with stagnation detection, and is recorded
// in SolveReport::attempts.  The bound matrix must outlive the Solver and
// must not move or change values while bound; callers that rebuild their
// matrix (topology epoch bumps) rebuild the Solver with it.
#pragma once

#include <memory>
#include <string>

#include "la/backend.h"
#include "la/bicgstab.h"
#include "la/cg.h"

namespace vstack::la {

/// The primary method a bind picked (Solver::kind()).
enum class SolverKind { Cg, BiCgStab };

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
  /// Largest system the final dense-LU rung will factorize; anything bigger
  /// skips that rung (a dense factorization would not fit in memory).
  std::size_t dense_fallback_max_size = 4000;
  /// Relative diagonal shift applied to the rebuilt-preconditioner rung
  /// (stabilizes ILU on near-singular matrices; the system solved is still
  /// the original A).
  double ilu_rebuild_shift = 1e-6;
};

class Solver {
 public:
  /// Bind `a` (which must outlive the Solver, at a stable address) and pay
  /// all per-matrix costs up front: backend preparation, the symmetry probe
  /// and the preconditioner factorization.
  explicit Solver(const CsrMatrix& a, SolveOptions options = {});

  Solver(Solver&&) = default;
  Solver& operator=(Solver&&) = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Solve A x = b through the full escalation ladder under `iterative`'s
  /// iteration limit, tolerance and deadline (per attempt); x is the
  /// initial guess and receives the solution.
  ///
  /// NON-THROWING on solver failure: check report.converged.  On failure,
  /// report.diagnostic names the reason, report.attempts holds the full
  /// trail, and x is restored to the caller's initial guess -- never NaN.
  /// (Size mismatches and other precondition violations still throw
  /// vstack::Error.)
  SolveReport solve(const Vector& b, Vector& x,
                    const IterativeOptions& iterative = {});

  /// One attempt of the primary method (CG for symmetric binds, BiCGSTAB
  /// otherwise) with the bound preconditioner -- no escalation ladder, no
  /// guess restore on failure.  This is the warm-start fast path used by
  /// the PDN and transient caches; on a stall they follow up with solve()
  /// from a cold start and keep the full attempt trail.
  SolveReport iterate_once(const Vector& b, Vector& x,
                           const IterativeOptions& iterative);

  const CsrMatrix& matrix() const { return *a_; }
  const Backend& backend() const { return *backend_; }
  /// CG when the bound matrix is symmetric, BiCGSTAB otherwise.
  SolverKind kind() const { return kind_; }
  /// Label of the preconditioner actually built: "ilu0", or "jacobi" when
  /// ILU(0) could not factor -- attempt names embed it.
  const std::string& preconditioner_label() const { return precond_label_; }

 private:
  const CsrMatrix* a_;
  SolveOptions options_;
  const Backend* backend_;
  SolverKind kind_ = SolverKind::Cg;
  std::unique_ptr<BackendMatrix> prepared_;
  std::unique_ptr<Preconditioner> precond_;
  std::string precond_label_;
  KrylovWorkspace workspace_;
};

}  // namespace vstack::la
