#include "la/preconditioner.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace vstack::la {

namespace {

void require_block(std::size_t n, const Vector& r, std::size_t width) {
  VS_REQUIRE(width >= 1 && width <= kBlockWidth,
             "block apply: width must be in [1, kBlockWidth]");
  VS_REQUIRE(r.size() == n * width, "block apply: size mismatch");
}

}  // namespace

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

void JacobiPreconditioner::apply_block(const Vector& r, Vector& z,
                                       std::size_t width) const {
  const std::size_t n = inv_diag_.size();
  require_block(n, r, width);
  z.resize(r.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < width; ++j) {
      z[i * width + j] = r[i * width + j] * inv_diag_[i];
    }
  }
}

Ilu0Preconditioner::Ilu0Preconditioner(const CsrMatrix& a) : n_(a.size()) {
  VS_REQUIRE(a.nnz() <= std::numeric_limits<std::uint32_t>::max(),
             "ILU(0) factors take at most 2^32 - 1 entries");
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  l_ptr_.assign(n_ + 1, 0);
  u_ptr_.assign(n_ + 1, 0);
  for (std::size_t r = 0; r < n_; ++r) {
    std::size_t k = row_ptr[r];
    while (k < row_ptr[r + 1] && col_idx[k] < r) ++k;  // columns are sorted
    VS_REQUIRE(k < row_ptr[r + 1] && col_idx[k] == r,
               "ILU(0) requires a structurally nonzero diagonal");
    l_ptr_[r + 1] = l_ptr_[r] + static_cast<std::uint32_t>(k - row_ptr[r]);
    u_ptr_[r + 1] =
        u_ptr_[r] + static_cast<std::uint32_t>(row_ptr[r + 1] - k - 1);
  }
  l_col_.reserve(l_ptr_[n_]);
  l_val_.reserve(l_ptr_[n_]);
  u_col_.reserve(u_ptr_[n_]);
  u_val_.reserve(u_ptr_[n_]);
  diag_.reserve(n_);

  // IKJ-variant ILU(0), one row at a time: row i is appended to L, diag_
  // and U, then eliminated in place with the finished U rows of the
  // previous rows in its pattern.  slot[c] addresses row i's entry in
  // column c (null when c is outside row i's pattern); the reserved
  // arrays never reallocate, so the addresses stay valid.
  std::vector<double*> slot(n_, nullptr);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t begin = row_ptr[i];
    const std::size_t end = row_ptr[i + 1];
    const std::size_t diag = begin + (l_ptr_[i + 1] - l_ptr_[i]);
    for (std::size_t k = begin; k < diag; ++k) {
      l_col_.push_back(static_cast<std::uint32_t>(col_idx[k]));
      slot[col_idx[k]] = &l_val_.emplace_back(values[k]);
    }
    slot[i] = &diag_.emplace_back(values[diag]);
    for (std::size_t k = diag + 1; k < end; ++k) {
      u_col_.push_back(static_cast<std::uint32_t>(col_idx[k]));
      slot[col_idx[k]] = &u_val_.emplace_back(values[k]);
    }
    for (std::uint32_t l = l_ptr_[i]; l < l_ptr_[i + 1]; ++l) {
      const std::uint32_t j = l_col_[l];
      const double pivot = diag_[j];
      VS_REQUIRE(std::abs(pivot) > 0.0, "ILU(0) zero pivot");
      const double lij = l_val_[l] / pivot;
      l_val_[l] = lij;
      // Subtract lij * U(j, j+1:) restricted to row i's pattern.
      for (std::uint32_t u = u_ptr_[j]; u < u_ptr_[j + 1]; ++u) {
        if (double* p = slot[u_col_[u]]) *p -= lij * u_val_[u];
      }
    }
    for (std::size_t k = begin; k < end; ++k) slot[col_idx[k]] = nullptr;
  }
}

template <std::size_t W>
void Ilu0Preconditioner::solve(const double* r, double* z) const {
  const std::uint32_t* l_ptr = l_ptr_.data();
  const std::uint32_t* l_col = l_col_.data();
  const double* l_val = l_val_.data();
  const std::uint32_t* u_ptr = u_ptr_.data();
  const std::uint32_t* u_col = u_col_.data();
  const double* u_val = u_val_.data();
  // Forward solve L y = r (unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double s[W];
    for (std::size_t j = 0; j < W; ++j) s[j] = r[i * W + j];
    for (std::uint32_t k = l_ptr[i]; k < l_ptr[i + 1]; ++k) {
      const double l = l_val[k];
      const double* zc = z + std::size_t{l_col[k]} * W;
      for (std::size_t j = 0; j < W; ++j) s[j] -= l * zc[j];
    }
    for (std::size_t j = 0; j < W; ++j) z[i * W + j] = s[j];
  }
  // Backward solve U z = y.
  for (std::size_t i = n_; i-- > 0;) {
    double s[W];
    for (std::size_t j = 0; j < W; ++j) s[j] = z[i * W + j];
    for (std::uint32_t k = u_ptr[i]; k < u_ptr[i + 1]; ++k) {
      const double u = u_val[k];
      const double* zc = z + std::size_t{u_col[k]} * W;
      for (std::size_t j = 0; j < W; ++j) s[j] -= u * zc[j];
    }
    const double d = diag_[i];
    for (std::size_t j = 0; j < W; ++j) z[i * W + j] = s[j] / d;
  }
}

void Ilu0Preconditioner::apply(const Vector& r, Vector& z) const {
  VS_REQUIRE(r.size() == n_, "ilu0 apply: size mismatch");
  z.resize(n_);
  solve<1>(r.data(), z.data());
}

void Ilu0Preconditioner::apply_block(const Vector& r, Vector& z,
                                     std::size_t width) const {
  require_block(n_, r, width);
  z.resize(r.size());
  with_block_width(width, [&](auto w) {
    solve<decltype(w)::value>(r.data(), z.data());
  });
}

std::unique_ptr<Preconditioner> make_jacobi(const CsrMatrix& a) {
  return std::make_unique<JacobiPreconditioner>(a);
}

std::unique_ptr<Preconditioner> make_ilu0(const CsrMatrix& a) {
  return std::make_unique<Ilu0Preconditioner>(a);
}

}  // namespace vstack::la
