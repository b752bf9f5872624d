// Preconditioners for the Krylov solvers.
#pragma once

#include <memory>

#include "la/sparse.h"
#include "la/vector_ops.h"

namespace vstack::la {

/// Approximate inverse applied as z = M^{-1} r.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  virtual void apply(const Vector& r, Vector& z) const = 0;
};

/// Diagonal (Jacobi) preconditioner.  Rows with zero diagonal pass through.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(const Vector& r, Vector& z) const override;

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

 private:
  // LU factors share A's sparsity pattern: strictly-lower entries hold L
  // (unit diagonal implied), diagonal and upper hold U.
  std::size_t n_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> lu_;
  std::vector<std::size_t> diag_pos_;  // index of the diagonal entry per row
};

/// Factory helpers returning owning pointers.
std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a);
std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a);

}  // namespace vstack::la
