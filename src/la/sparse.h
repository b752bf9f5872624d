// Sparse matrix storage.
//
// Matrices are assembled through CooBuilder (duplicate entries are summed,
// which is exactly the "stamping" discipline of modified nodal analysis) and
// then frozen into compressed-sparse-row form for the solvers.  Callers that
// assemble many matrices over one fixed stamp list record the merge once in
// a CsrAssembly and replay it per value set.
#pragma once

#include <cstddef>
#include <vector>

#include "la/vector_ops.h"

namespace vstack::la {

class CsrMatrix;

/// Coordinate-format assembly buffer.  add(i, j, v) may be called any number
/// of times for the same (i, j); values accumulate, matching MNA stamping.
class CooBuilder {
 public:
  explicit CooBuilder(std::size_t n);

  /// Accumulate `value` at (row, col).  Indices must be < n.
  void add(std::size_t row, std::size_t col, double value);

  std::size_t size() const { return n_; }
  std::size_t entry_count() const { return rows_.size(); }

  /// Sort, merge duplicates, and produce the CSR matrix.
  CsrMatrix build() const;

 private:
  friend class CsrAssembly;

  std::size_t n_;
  std::vector<std::size_t> rows_;
  std::vector<std::size_t> cols_;
  std::vector<double> values_;
};

/// CooBuilder::build() recorded for a fixed list of stamp positions.
///
/// The constructor runs build()'s sort and merge once and keeps the merge
/// order; assemble() then produces the CSR matrix for any values in
/// O(stamps), summing each entry's duplicates in exactly build()'s order, so
/// the result is bit-identical to a fresh build() of the same stamps.  Use
/// it when one stamp list is assembled with many value sets (the transient
/// step matrix of one topology for every timestep).
class CsrAssembly {
 public:
  /// An empty plan (zero stamps); assign a real one before assembling.
  CsrAssembly() = default;

  /// Plan for `stamps`' positions, in its add() order; its values are
  /// ignored.
  explicit CsrAssembly(const CooBuilder& stamps);

  std::size_t stamp_count() const { return order_.size(); }
  std::size_t nnz() const { return col_idx_.size(); }

  /// The matrix build() would return had the k-th add() carried
  /// `values[k]`.  values.size() must equal stamp_count().
  CsrMatrix assemble(const std::vector<double>& values) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  /// Stamp indices in merge order; CSR entry k sums
  /// order_[entry_ptr_[k] .. entry_ptr_[k + 1]) left to right.
  std::vector<std::size_t> order_;
  std::vector<std::size_t> entry_ptr_;
};

/// Square compressed-sparse-row matrix with sorted, unique column indices
/// per row.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t n, std::vector<std::size_t> row_ptr,
            std::vector<std::size_t> col_idx, std::vector<double> values);

  std::size_t size() const { return n_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A * x
  void multiply(const Vector& x, Vector& y) const;
  Vector multiply(const Vector& x) const;

  /// Entry lookup (binary search within the row); 0 if not stored.
  double at(std::size_t row, std::size_t col) const;

  /// Extract the diagonal; absent diagonal entries read as 0.
  Vector diagonal() const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace vstack::la
