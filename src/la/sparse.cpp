#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace vstack::la {

CooBuilder::CooBuilder(std::size_t n) : n_(n) {
  VS_REQUIRE(n > 0, "matrix dimension must be positive");
}

void CooBuilder::add(std::size_t row, std::size_t col, double value) {
  VS_REQUIRE(row < n_ && col < n_, "stamp index out of range");
  rows_.push_back(row);
  cols_.push_back(col);
  values_.push_back(value);
}

namespace {

/// Stamp indices sorted by (row, col).  The tie order among duplicates of
/// one (row, col) is whatever this sort leaves, and it fixes the order in
/// which their values are summed -- build() and CsrAssembly both take it
/// from here, which is what makes a replayed assembly bit-identical.
std::vector<std::size_t> merge_order(const std::vector<std::size_t>& rows,
                                     const std::vector<std::size_t>& cols) {
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rows[a] != rows[b]) return rows[a] < rows[b];
    return cols[a] < cols[b];
  });
  return order;
}

}  // namespace

CsrMatrix CooBuilder::build() const {
  // Sort entry indices by (row, col), then merge duplicates.
  const std::vector<std::size_t> order = merge_order(rows_, cols_);

  // row_ptr holds per-row entry counts during the merge pass and is turned
  // into cumulative offsets afterwards.
  std::vector<std::size_t> row_ptr(n_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(order.size());
  values.reserve(order.size());

  std::size_t prev_row = n_;  // sentinel: no previous entry
  std::size_t prev_col = n_;
  for (const std::size_t e : order) {
    if (!values.empty() && rows_[e] == prev_row && cols_[e] == prev_col) {
      values.back() += values_[e];
      continue;
    }
    col_idx.push_back(cols_[e]);
    values.push_back(values_[e]);
    row_ptr[rows_[e] + 1]++;
    prev_row = rows_[e];
    prev_col = cols_[e];
  }
  for (std::size_t r = 0; r < n_; ++r) row_ptr[r + 1] += row_ptr[r];

  return CsrMatrix(n_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrAssembly::CsrAssembly(const CooBuilder& stamps)
    : n_(stamps.n_), order_(merge_order(stamps.rows_, stamps.cols_)) {
  // build()'s merge pass, recording where each entry's run of duplicates
  // starts in order_ instead of summing values.
  const auto& rows = stamps.rows_;
  const auto& cols = stamps.cols_;
  row_ptr_.assign(n_ + 1, 0);
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const std::size_t e = order_[k];
    if (k > 0 && rows[e] == rows[order_[k - 1]] &&
        cols[e] == cols[order_[k - 1]]) {
      continue;
    }
    col_idx_.push_back(cols[e]);
    entry_ptr_.push_back(k);
    row_ptr_[rows[e] + 1]++;
  }
  entry_ptr_.push_back(order_.size());
  for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
}

CsrMatrix CsrAssembly::assemble(const std::vector<double>& values) const {
  VS_REQUIRE(values.size() == order_.size(),
             "assemble: one value per planned stamp required");
  std::vector<double> merged(col_idx_.size());
  for (std::size_t k = 0; k < merged.size(); ++k) {
    std::size_t i = entry_ptr_[k];
    double sum = values[order_[i]];
    for (++i; i < entry_ptr_[k + 1]; ++i) sum += values[order_[i]];
    merged[k] = sum;
  }
  return CsrMatrix(n_, row_ptr_, col_idx_, std::move(merged));
}

CsrMatrix::CsrMatrix(std::size_t n, std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : n_(n),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  VS_REQUIRE(row_ptr_.size() == n_ + 1, "row_ptr size must be n + 1");
  VS_REQUIRE(col_idx_.size() == values_.size(),
             "col_idx and values must have equal length");
  VS_REQUIRE(row_ptr_.back() == values_.size(),
             "row_ptr must end at nnz");
}

void CsrMatrix::multiply(const Vector& x, Vector& y) const {
  VS_REQUIRE(x.size() == n_, "multiply: dimension mismatch");
  y.assign(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      s += values_[k] * x[col_idx_[k]];
    }
    y[r] = s;
  }
}

Vector CsrMatrix::multiply(const Vector& x) const {
  Vector y;
  multiply(x, y);
  return y;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  VS_REQUIRE(row < n_ && col < n_, "at: index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

Vector CsrMatrix::diagonal() const {
  Vector d(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) d[r] = at(r, r);
  return d;
}

bool CsrMatrix::is_symmetric(double tol) const {
  constexpr double kDefaultTol = 1e-12;
  if (tol == kDefaultTol) {
    const signed char memo = symmetry_memo_.load(std::memory_order_relaxed);
    if (memo >= 0) return memo != 0;
    const bool sym = symmetry_scan(tol);
    symmetry_memo_.store(sym ? 1 : 0, std::memory_order_relaxed);
    return sym;
  }
  return symmetry_scan(tol);
}

bool CsrMatrix::symmetry_scan(double tol) const {
  double max_abs = 0.0;
  for (double v : values_) max_abs = std::max(max_abs, std::abs(v));
  const double threshold = tol * std::max(max_abs, 1.0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      if (std::abs(values_[k] - at(c, r)) > threshold) return false;
    }
  }
  return true;
}

}  // namespace vstack::la
