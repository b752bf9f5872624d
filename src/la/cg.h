// Preconditioned conjugate gradient for the symmetric positive-definite
// grid Laplacians every layer solves (PDN DC and transient steps, imported
// grids, thermal), plus its workspace/context plumbing and the report
// la::Solver returns.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "la/backend.h"
#include "la/preconditioner.h"
#include "la/sparse.h"

namespace vstack::la {

/// One step of the front-door solve (see la/solver.h).
struct SolveAttempt {
  std::string method;          // "cg+ilu0", "cg+jacobi" or "dense-lu"
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
};

/// Convergence report of a CG run or of la::Solver::solve.  The base fields
/// always describe the final (or only) attempt; `attempts` is the full trail
/// when the report comes from la::Solver::solve, so callers can see HOW
/// degraded a solve was, not just whether it succeeded.
struct SolveReport {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;  // final ||b - Ax|| / ||b||
  std::vector<SolveAttempt> attempts;
  std::string diagnostic;      // nonempty when converged == false
  /// True when the run stopped because IterativeOptions.deadline fired
  /// (cancellation or wall-clock expiry), not because of numerics.  Callers
  /// mapping failures onto TIMEOUT-vs-FAILED responses branch on this.
  bool deadline_expired = false;
};

struct IterativeOptions {
  std::size_t max_iterations = 5000;
  double relative_tolerance = 1e-10;
  /// Stagnation detection: give up when the best residual seen has not
  /// improved by at least a factor of `stagnation_factor` within the last
  /// `stagnation_window` iterations.  0 disables the check (default for
  /// direct conjugate_gradient calls; la::Solver enables it so a stalled CG
  /// run hands over to dense LU promptly).
  std::size_t stagnation_window = 0;
  double stagnation_factor = 0.99;
  /// Cooperative cancellation / wall-clock deadline, checked every few
  /// iterations.  When it fires mid-solve the report comes back with
  /// converged == false and deadline_expired == true; x holds the iterate
  /// reached so far (la::Solver restores the caller's initial guess on top).
  /// Default: unlimited (one null check per poll).
  Deadline deadline{};
};

/// Reusable CG iteration scratch.  A solver handle owns one and threads it
/// through every solve against its matrix, so the CG loop allocates nothing
/// after the first call (docs/linear_algebra.md).  ensure() is idempotent
/// and cheap once sized.
struct KrylovWorkspace {
  Vector r, z, p, ap;  // ap doubles as SpMV scratch
  void ensure(std::size_t n) {
    if (r.size() != n) {
      r.resize(n);
      z.resize(n);
      p.resize(n);
      ap.resize(n);
    }
  }
};

/// Optional execution context for a CG solve: which kernel backend to
/// run on, an already-prepared matrix form, and a reusable workspace.  Any
/// field may be null; a null backend resolves to default_backend(), and
/// null prepared/workspace fall back to per-call locals.  `prepared` must
/// have been produced by `backend->prepare()` on the same matrix.
struct KrylovContext {
  const Backend* backend = nullptr;
  const BackendMatrix* prepared = nullptr;
  KrylovWorkspace* workspace = nullptr;
};

/// Solve A x = b with preconditioned CG.  `x` is used as the initial guess
/// and receives the solution.
SolveReport conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                               const Preconditioner& precond,
                               const IterativeOptions& options = {});

/// Zero-alloc variant: runs on ctx's backend/prepared-matrix/workspace.
SolveReport conjugate_gradient(const CsrMatrix& a, const Vector& b, Vector& x,
                               const Preconditioner& precond,
                               const IterativeOptions& options,
                               const KrylovContext& ctx);

namespace detail {

/// la::Solver's batch path (docs/linear_algebra.md section 4): CG of
/// A x[i] = b[i] for every i on the reference backend's arithmetic,
/// `prepared` being that backend's form of `a`, returning report i of
/// each with the bits, iterations and report conjugate_gradient() gives.
/// The right-hand sides run in groups of at most kBlockWidth, stored
/// row-interleaved: one SpMV, one preconditioner apply and one pass of
/// each vector update serve the whole group, while each right-hand side
/// keeps its own scalars and reductions, summed in the single-vector
/// order.  A right-hand side leaves its group when it converges or
/// fails; the rest go on at the narrower width.  The caller has checked
/// every b[i] and sized every x[i] (the initial guess) to a.size().
std::vector<SolveReport> lockstep_cg(const CsrMatrix& a,
                                     const BackendMatrix& prepared,
                                     const Preconditioner& precond,
                                     std::span<const Vector> b,
                                     std::span<Vector> x,
                                     const IterativeOptions& options);

}  // namespace detail

}  // namespace vstack::la
