#include "la/skyline_cholesky.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "la/cg.h"

namespace vstack::la {
namespace {

CsrMatrix laplacian_2d(std::size_t m) {
  const std::size_t n = m * m;
  CooBuilder b(n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t i = r * m + c;
      b.add(i, i, 4.0);
      if (r > 0) b.add(i, i - m, -1.0);
      if (r + 1 < m) b.add(i, i + m, -1.0);
      if (c > 0) b.add(i, i - 1, -1.0);
      if (c + 1 < m) b.add(i, i + 1, -1.0);
    }
  }
  return b.build();
}

TEST(RcmTest, ProducesValidPermutation) {
  const auto a = laplacian_2d(10);
  const auto perm = reverse_cuthill_mckee(a);
  std::vector<bool> seen(a.size(), false);
  for (const std::size_t p : perm) {
    ASSERT_LT(p, a.size());
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(RcmTest, ReducesBandwidthOfShuffledGrid) {
  // Shuffle a grid matrix, then check RCM restores a small bandwidth.
  const auto a = laplacian_2d(12);
  Rng rng(5);
  std::vector<std::size_t> shuffle(a.size());
  for (std::size_t i = 0; i < shuffle.size(); ++i) shuffle[i] = i;
  rng.shuffle(shuffle);
  const auto shuffled = permute_symmetric(a, shuffle);
  const auto rcm = reverse_cuthill_mckee(shuffled);
  const auto restored = permute_symmetric(shuffled, rcm);
  EXPECT_LT(half_bandwidth(restored), half_bandwidth(shuffled) / 2);
}

TEST(RcmTest, PermuteRejectsBadPermutation) {
  const auto a = laplacian_2d(3);
  std::vector<std::size_t> bad(a.size(), 0);  // not a bijection
  EXPECT_THROW(permute_symmetric(a, bad), Error);
}

TEST(SkylineCholeskyTest, SolvesGridSystem) {
  const auto a = laplacian_2d(15);
  Vector b(a.size());
  Rng rng(7);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  SkylineCholesky chol(a);
  const Vector x = chol.solve(b);
  const Vector r = subtract(b, a.multiply(x));
  EXPECT_LT(norm2(r) / norm2(b), 1e-12);
}

TEST(SkylineCholeskyTest, MatchesCg) {
  const auto a = laplacian_2d(12);
  const Vector b(a.size(), 1.0);
  SkylineCholesky chol(a);
  const Vector x_direct = chol.solve(b);
  Vector x_cg;
  conjugate_gradient(a, b, x_cg, *make_ilu0(a));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(x_direct[i], x_cg[i], 1e-7);
  }
}

TEST(SkylineCholeskyTest, RejectsIndefiniteMatrix) {
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 1.0);  // eigenvalues 3 and -1
  EXPECT_THROW(SkylineCholesky{b.build()}, Error);
}

TEST(SkylineCholeskyTest, RejectsWrongRhs) {
  const auto a = laplacian_2d(3);
  SkylineCholesky chol(a);
  EXPECT_THROW(chol.solve(Vector(4, 1.0)), Error);
}

TEST(ReorderedCholeskyTest, SolvesInOriginalNumbering) {
  // Shuffle the grid so the raw envelope would be huge; the reordered
  // factorization must still return the answer in the caller's indices.
  const auto a = laplacian_2d(12);
  Rng rng(11);
  std::vector<std::size_t> shuffle(a.size());
  for (std::size_t i = 0; i < shuffle.size(); ++i) shuffle[i] = i;
  rng.shuffle(shuffle);
  const auto shuffled = permute_symmetric(a, shuffle);

  Vector b(a.size());
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  ReorderedCholesky chol(shuffled);
  const Vector x = chol.solve(b);
  const Vector r = subtract(b, shuffled.multiply(x));
  EXPECT_LT(norm2(r) / norm2(b), 1e-12);
  const auto reordered =
      permute_symmetric(shuffled, reverse_cuthill_mckee(shuffled));
  EXPECT_LT(half_bandwidth(reordered), half_bandwidth(shuffled));
}

TEST(ReorderedCholeskyTest, RepeatedSolvesAreConsistent) {
  const auto a = laplacian_2d(8);
  ReorderedCholesky chol(a);
  const Vector x1 = chol.solve(Vector(a.size(), 1.0));
  const Vector x2 = chol.solve(Vector(a.size(), 2.0));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(x2[i], 2.0 * x1[i], 1e-12);
  }
}

}  // namespace
}  // namespace vstack::la
