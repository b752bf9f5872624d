// Dense LU with partial pivoting.
//
// The switched-capacitor transient simulator works on circuits with tens of
// nodes and refactors at every switch phase; a dense factorization is both
// simplest and fastest at that scale.  Also serves as the reference solver
// in the linear-algebra tests.
#pragma once

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "la/sparse.h"
#include "la/vector_ops.h"

namespace vstack::la {

/// Row-major dense matrix, minimal interface for LU use.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double value = 0.0);

  static DenseMatrix from_csr(const CsrMatrix& a);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  Vector multiply(const Vector& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting; throws vstack::Error on a
/// numerically singular matrix, or when `deadline` fires mid-factorization
/// (the O(n^3) elimination is the one dense step long enough to need a
/// cooperative abort -- see la/solver.cpp's dense fallback).
class DenseLu {
 public:
  explicit DenseLu(DenseMatrix a, const Deadline& deadline = {});

  /// Solve A x = b for one right-hand side.
  Vector solve(const Vector& b) const;

  std::size_t size() const { return lu_.rows(); }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
};

}  // namespace vstack::la
