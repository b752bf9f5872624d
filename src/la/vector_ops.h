// Dense vector kernels shared by the iterative solvers.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace vstack::la {

using Vector = std::vector<double>;

/// Most right-hand sides a lockstep kernel carries at once.  A block of w
/// vectors of length n is stored row-interleaved: entry i of vector j sits
/// at i * w + j, so one row's w entries are contiguous.
inline constexpr std::size_t kBlockWidth = 6;

/// Calls f(std::integral_constant<std::size_t, width>{}) for a width in
/// [1, kBlockWidth], so block kernels see their width at compile time.
template <class F>
void with_block_width(std::size_t width, F&& f) {
  [&]<std::size_t... W>(std::index_sequence<W...>) {
    ((width == W + 1
          ? (f(std::integral_constant<std::size_t, W + 1>{}), true)
          : false) ||
     ...);
  }(std::make_index_sequence<kBlockWidth>{});
}

/// Dot product; vectors must have equal length.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& a);

/// Infinity norm (max absolute entry); 0 for an empty vector.
double norm_inf(const Vector& a);

/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);

/// y = x + beta * y  (used by CG's direction update)
void xpby(const Vector& x, double beta, Vector& y);

/// out = a - b
Vector subtract(const Vector& a, const Vector& b);

/// Fill with a constant.
void fill(Vector& v, double value);

}  // namespace vstack::la
