#include "la/skyline_cholesky.h"

#include <cmath>
#include <utility>

#include "common/error.h"

namespace vstack::la {

SkylineCholesky::SkylineCholesky(const CsrMatrix& a) : n_(a.size()) {
  VS_REQUIRE(n_ > 0, "cannot factor an empty matrix");

  // Row profiles: first nonzero column at or below the diagonal.
  first_col_.assign(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t first = i;  // at least the diagonal
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      if (j < first) first = j;
    }
    first_col_[i] = first;
  }

  row_start_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    row_start_[i + 1] = row_start_[i] + (i - first_col_[i] + 1);
  }
  values_.assign(row_start_[n_], 0.0);

  // Scatter the lower triangle of A into the envelope.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k) {
      const std::size_t j = a.col_idx()[k];
      if (j <= i) entry(i, j) = a.values()[k];
    }
  }

  // Row-oriented Cholesky within the envelope:
  //   L(i, j) = (A(i, j) - sum_k L(i, k) L(j, k)) / L(j, j)
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = first_col_[i]; j < i; ++j) {
      const std::size_t lo = std::max(first_col_[i], first_col_[j]);
      double s = entry(i, j);
      for (std::size_t k = lo; k < j; ++k) {
        s -= entry(i, k) * entry(j, k);
      }
      entry(i, j) = s / entry(j, j);
    }
    double d = entry(i, i);
    for (std::size_t k = first_col_[i]; k < i; ++k) {
      d -= entry(i, k) * entry(i, k);
    }
    VS_REQUIRE(d > 0.0, "matrix is not positive definite");
    entry(i, i) = std::sqrt(d);
  }
}

double& SkylineCholesky::entry(std::size_t row, std::size_t col) {
  return values_[row_start_[row] + (col - first_col_[row])];
}

double SkylineCholesky::entry(std::size_t row, std::size_t col) const {
  if (col < first_col_[row]) return 0.0;
  return values_[row_start_[row] + (col - first_col_[row])];
}

Vector SkylineCholesky::solve(const Vector& b) const {
  VS_REQUIRE(b.size() == n_, "rhs size mismatch");
  Vector y(n_);
  // Forward: L y = b.
  for (std::size_t i = 0; i < n_; ++i) {
    double s = b[i];
    for (std::size_t k = first_col_[i]; k < i; ++k) {
      s -= entry(i, k) * y[k];
    }
    y[i] = s / entry(i, i);
  }
  // Backward: L^T x = y, column sweep so only row profiles are touched:
  // once x[col] is final, retire its contribution L(col, k) * x[col] from
  // every earlier unknown k in row col's profile.
  for (std::size_t col = n_; col-- > 0;) {
    y[col] /= entry(col, col);
    for (std::size_t k = first_col_[col]; k < col; ++k) {
      y[k] -= entry(col, k) * y[col];
    }
  }
  return y;
}

ReorderedCholesky::ReorderedCholesky(const CsrMatrix& a)
    : ReorderedCholesky(a, reverse_cuthill_mckee(a)) {}

ReorderedCholesky::ReorderedCholesky(const CsrMatrix& a,
                                     std::vector<std::size_t> perm)
    : perm_(std::move(perm)),
      factor_(std::make_unique<SkylineCholesky>(permute_symmetric(a, perm_))) {
}

Vector ReorderedCholesky::solve(const Vector& b) const {
  VS_REQUIRE(b.size() == perm_.size(), "rhs size mismatch");
  Vector pb(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) pb[i] = b[perm_[i]];
  const Vector px = factor_->solve(pb);
  Vector x(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) x[perm_[i]] = px[i];
  return x;
}

}  // namespace vstack::la
