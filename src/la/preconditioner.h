// Preconditioners for the Krylov solvers.
#pragma once

#include <cstdint>
#include <memory>

#include "la/sparse.h"
#include "la/vector_ops.h"

namespace vstack::la {

/// Approximate inverse applied as z = M^{-1} r.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(const Vector& r, Vector& z) const = 0;
  /// apply() to `width` (1 to kBlockWidth) row-interleaved vectors at once
  /// (la/vector_ops.h); each one gets exactly apply()'s bits.
  virtual void apply_block(const Vector& r, Vector& z,
                           std::size_t width) const = 0;
};

/// Diagonal (Jacobi) preconditioner.  Rows with zero diagonal pass through.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;
  void apply_block(const Vector& r, Vector& z,
                   std::size_t width) const override;

 private:
  Vector inv_diag_;
};

/// Zero-fill incomplete LU factorization.  Works on any matrix whose
/// sparsity pattern admits the factorization (the MNA matrices here always
/// have nonzero diagonals after grounding).
class Ilu0Preconditioner final : public Preconditioner {
 public:
  explicit Ilu0Preconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;
  void apply_block(const Vector& r, Vector& z,
                   std::size_t width) const override;

 private:
  template <std::size_t W>
  void solve(const double* r, double* z) const;

  // The factors keep A's sparsity pattern, split for the two triangular
  // solves: L holds each row's strictly-lower entries (unit diagonal
  // implied), U its strictly-upper entries, and diag_ U's diagonal.  Both
  // keep A's column order, and 32-bit columns halve the index traffic.
  std::size_t n_;
  std::vector<std::uint32_t> l_ptr_, l_col_;
  std::vector<double> l_val_;
  std::vector<std::uint32_t> u_ptr_, u_col_;
  std::vector<double> u_val_;
  std::vector<double> diag_;
};

/// Factory helpers returning owning pointers.
std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a);
std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a);

}  // namespace vstack::la
