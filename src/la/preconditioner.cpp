#include "la/preconditioner.h"

#include <cmath>

#include "common/error.h"

namespace vstack::la {

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  inv_diag_ = a.diagonal();
  for (double& d : inv_diag_) {
    d = (std::abs(d) > 0.0) ? 1.0 / d : 1.0;
  }
}

void JacobiPreconditioner::apply(const Vector& r, Vector& z) const {
  VS_REQUIRE(r.size() == inv_diag_.size(), "jacobi apply: size mismatch");
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] * inv_diag_[i];
}

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a)
    : n_(a.size()),
      row_ptr_(a.row_ptr()),
      col_idx_(a.col_idx()),
      lu_(a.values()),
      diag_pos_(a.size()) {
  // Locate diagonal entries.
  for (std::size_t r = 0; r < n_; ++r) {
    bool found = false;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == r) {
        diag_pos_[r] = k;
        found = true;
        break;
      }
    }
    VS_REQUIRE(found, "ILU(0) requires a structurally nonzero diagonal");
  }

  // IKJ-variant ILU(0): for each row i, eliminate using previous rows that
  // appear in row i's pattern.
  std::vector<std::ptrdiff_t> pos_in_row(n_, -1);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      pos_in_row[col_idx_[k]] = static_cast<std::ptrdiff_t>(k);
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t j = col_idx_[k];
      if (j >= i) break;  // columns are sorted; strictly-lower part first
      const double pivot = lu_[diag_pos_[j]];
      VS_REQUIRE(std::abs(pivot) > 0.0, "ILU(0) zero pivot");
      const double lij = lu_[k] / pivot;
      lu_[k] = lij;
      // Subtract lij * U(j, j+1:) restricted to row i's pattern.
      for (std::size_t kk = diag_pos_[j] + 1; kk < row_ptr_[j + 1]; ++kk) {
        const std::ptrdiff_t p = pos_in_row[col_idx_[kk]];
        if (p >= 0) lu_[static_cast<std::size_t>(p)] -= lij * lu_[kk];
      }
    }
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      pos_in_row[col_idx_[k]] = -1;
    }
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  VS_REQUIRE(r.size() == n_, "ilu0 apply: size mismatch");
  z.resize(n_);
  // Forward solve L y = r (unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double s = r[i];
    for (std::size_t k = row_ptr_[i]; k < diag_pos_[i]; ++k) {
      s -= lu_[k] * z[col_idx_[k]];
    }
    z[i] = s;
  }
  // Backward solve U z = y.
  for (std::size_t ii = n_; ii-- > 0;) {
    double s = z[ii];
    for (std::size_t k = diag_pos_[ii] + 1; k < row_ptr_[ii + 1]; ++k) {
      s -= lu_[k] * z[col_idx_[k]];
    }
    z[ii] = s / lu_[diag_pos_[ii]];
  }
}

std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a) {
  return std::make_unique<JacobiPreconditioner>(a);
}

std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a) {
  return std::make_unique<Ilu0Preconditioner>(a);
}

}  // namespace vstack::la
