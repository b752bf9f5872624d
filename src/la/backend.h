// Pluggable linear-algebra kernel backends.
//
// Every Krylov solve is built from a handful of kernels: CSR SpMV, dot,
// norm, axpy/xpby, and two fused update+reduce forms.  A Backend bundles
// one implementation of that kernel set:
//
//   * ReferenceBackend -- the original scalar kernels, byte-for-byte the
//     arithmetic this repo has always produced.  Always the default; every
//     bit-identity guarantee (campaign manifests, jobs=N determinism,
//     telemetry ON/OFF comparisons) is stated against it.
//
//   * OptimizedBackend -- SIMD-friendly kernels: a diagonal-band (DIA)
//     prepared form for stencil-structured matrices (contiguous gather-free
//     SpMV streams; grid-stamped PDN/thermal systems qualify), a 32-bit-
//     index CSR form otherwise (halves index bandwidth), 4-way unrolled
//     multi-accumulator reductions, and genuinely fused update+norm passes.
//     Reductions associate differently, so results agree with the
//     reference only to solver tolerance, never bitwise
//     (docs/linear_algebra.md "numerics policy").
//
// Backends are stateless singletons.  Matrix-shaped state (the prepared
// form) lives in a BackendMatrix produced by prepare(); la::Solver caches
// one per bound matrix so repeated solves pay the preparation exactly once.
// Selection: SolveOptions::backend > set_default_backend() (the CLI's
// --la-backend) > the VSTACK_LA_BACKEND environment variable > reference.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "la/sparse.h"
#include "la/vector_ops.h"

namespace vstack::la {

/// Backend-specific prepared form of a CsrMatrix.  Opaque to callers; pass
/// it back only to the backend that produced it, and only while the source
/// matrix outlives it.
class BackendMatrix {
 public:
  virtual ~BackendMatrix() = default;
};

/// One kernel-set implementation.  All vector arguments must already have
/// matching sizes except spmv/residual outputs, which are resized.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual const char* name() const = 0;

  /// Build the backend's prepared form of `a`.  `a` must outlive the
  /// result.  Cheap for the reference backend (a wrapper); one CSR copy
  /// with narrowed indices for the optimized backend.
  virtual std::unique_ptr<BackendMatrix> prepare(const CsrMatrix& a) const = 0;

  /// y = A x
  virtual void spmv(const BackendMatrix& m, const Vector& x,
                    Vector& y) const = 0;

  virtual double dot(const Vector& a, const Vector& b) const = 0;
  virtual double norm2(const Vector& a) const = 0;
  virtual void axpy(double alpha, const Vector& x, Vector& y) const = 0;
  virtual void xpby(const Vector& x, double beta, Vector& y) const = 0;

  /// Fused: y += alpha * x, returning ||y||_2.  The reference implementation
  /// is the unfused axpy-then-norm2 pair (bit-identical to the historic
  /// two-call sequence); optimized backends fuse the passes.
  virtual double axpy_norm2(double alpha, const Vector& x, Vector& y) const;

  /// Fused: r = b - A x (the Krylov restart residual).
  virtual void residual(const BackendMatrix& m, const Vector& b,
                        const Vector& x, Vector& r) const;
};

/// The two in-tree backends (process-lifetime singletons).
const Backend& reference_backend();
const Backend& optimized_backend();

/// Lookup by name ("reference" | "optimized"); nullptr when unknown.
const Backend* backend_by_name(const std::string& name);

/// Every backend this build ships, in registry order.
std::vector<const Backend*> all_backends();

/// Process-wide default used when SolveOptions::backend is Auto: the last
/// set_default_backend() value, else $VSTACK_LA_BACKEND (unknown values log
/// a warning and fall back), else the reference backend.
const Backend& default_backend();

/// Override the process default (the CLI's --la-backend).  Throws
/// vstack::Error for an unknown name.
void set_default_backend(const std::string& name);

/// Backend selection carried by SolveOptions.
enum class BackendChoice { Auto, Reference, Optimized };

/// Resolve a choice against the process default.
const Backend& resolve_backend(BackendChoice choice);

}  // namespace vstack::la
