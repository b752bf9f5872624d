// Skyline (envelope) Cholesky factorization for SPD systems.
//
// Stores each row's profile from its first nonzero column to the diagonal;
// fill-in within the envelope is allowed, outside it none occurs.  Pair
// with reverse_cuthill_mckee to keep the envelope small.  Factor once,
// back-substitute per right-hand side -- the right tool for the transient
// engine's hundreds of solves against one matrix.
#pragma once

#include <memory>
#include <vector>

#include "la/reorder.h"
#include "la/sparse.h"

namespace vstack::la {

class SkylineCholesky {
 public:
  /// Factor A = L L^T.  Throws vstack::Error if A is not SPD (within
  /// numerical tolerance) or not symmetric in pattern.
  explicit SkylineCholesky(const CsrMatrix& a);

  /// Solve A x = b.
  Vector solve(const Vector& b) const;

  std::size_t size() const { return n_; }
  /// Stored envelope entries (a measure of memory/flops).
  std::size_t envelope_size() const { return values_.size(); }

 private:
  double& entry(std::size_t row, std::size_t col);
  double entry(std::size_t row, std::size_t col) const;

  std::size_t n_ = 0;
  std::vector<std::size_t> first_col_;  // per row, start of its profile
  std::vector<std::size_t> row_start_;  // offset of each row in values_
  std::vector<double> values_;          // row profiles incl. the diagonal
};

/// Convenience: RCM-permuted factorization bundled with its ordering, so
/// callers can solve in the original numbering.
class ReorderedCholesky {
 public:
  explicit ReorderedCholesky(const CsrMatrix& a);

  /// Factor under a caller-supplied ordering (perm[new] = old).  The RCM
  /// ordering depends only on the sparsity pattern, so callers factoring
  /// many matrices of one pattern compute it once and pass it here.
  ReorderedCholesky(const CsrMatrix& a, std::vector<std::size_t> perm);

  Vector solve(const Vector& b) const;

  std::size_t envelope_size() const { return factor_->envelope_size(); }

 private:
  std::vector<std::size_t> perm_;  // new -> old
  std::unique_ptr<SkylineCholesky> factor_;
};

}  // namespace vstack::la
