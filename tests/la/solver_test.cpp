#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "la/bicgstab.h"
#include "la/cg.h"
#include "la/solver.h"

namespace vstack::la {
namespace {

/// 1-D resistor-chain Laplacian with grounded endpoints: SPD, well-known
/// solution structure.
CsrMatrix laplacian_1d(std::size_t n) {
  CooBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

/// 2-D five-point Laplacian on an m x m grid (Dirichlet boundary), the same
/// structure the PDN grids produce.
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

double residual(const CsrMatrix& a, const Vector& x, const Vector& b) {
  return norm2(subtract(b, a.multiply(x))) / norm2(b);
}

TEST(CgTest, SolvesSmallSpdSystem) {
  const CsrMatrix a = laplacian_1d(10);
  const Vector b(10, 1.0);
  Vector x;
  const auto precond = make_jacobi(a);
  const auto report = conjugate_gradient(a, b, x, *precond);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(a, x, b), 1e-9);
}

TEST(CgTest, SolvesLargeGridWithIlu0) {
  const CsrMatrix a = laplacian_2d(40);
  Vector b(a.size(), 0.0);
  Rng rng(5);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  Vector x;
  const auto precond = make_ilu0(a);
  const auto report = conjugate_gradient(a, b, x, *precond);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(a, x, b), 1e-9);
}

TEST(CgTest, Ilu0ConvergesFasterThanJacobi) {
  const CsrMatrix a = laplacian_2d(30);
  Vector b(a.size(), 1.0);
  Vector x1, x2;
  const auto r_jacobi = conjugate_gradient(a, b, x1, *make_jacobi(a));
  const auto r_ilu = conjugate_gradient(a, b, x2, *make_ilu0(a));
  ASSERT_TRUE(r_jacobi.converged);
  ASSERT_TRUE(r_ilu.converged);
  EXPECT_LT(r_ilu.iterations, r_jacobi.iterations);
}

TEST(CgTest, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = laplacian_1d(5);
  const Vector b(5, 0.0);
  Vector x(5, 3.0);  // nonzero initial guess must be overwritten
  const auto report = conjugate_gradient(a, b, x, JacobiPreconditioner(a));
  EXPECT_TRUE(report.converged);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(BiCgStabTest, SolvesNonSymmetricSystem) {
  // Convection-diffusion-like: Laplacian plus a skew term.
  const std::size_t n = 50;
  CooBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 3.0);
    if (i > 0) builder.add(i, i - 1, -1.5);
    if (i + 1 < n) builder.add(i, i + 1, -0.5);
  }
  const CsrMatrix a = builder.build();
  ASSERT_FALSE(a.is_symmetric());

  Vector b(n, 1.0);
  Vector x;
  const auto precond = make_ilu0(a);
  const auto report = bicgstab(a, b, x, *precond);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(a, x, b), 1e-9);
}

TEST(BiCgStabTest, MatchesCgOnSpdSystem) {
  const CsrMatrix a = laplacian_2d(12);
  Vector b(a.size(), 1.0);
  Vector x_cg, x_bi;
  conjugate_gradient(a, b, x_cg, *make_ilu0(a));
  bicgstab(a, b, x_bi, *make_ilu0(a));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(x_cg[i], x_bi[i], 1e-7);
  }
}

TEST(SolveTest, AutoPicksCgForSymmetric) {
  const CsrMatrix a = laplacian_1d(20);
  const Vector b(20, 1.0);
  Vector x;
  const auto report = Solver(a).solve(b, x);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(a, x, b), 1e-9);
}

TEST(SolveTest, AutoHandlesNonSymmetric) {
  CooBuilder builder(3);
  builder.add(0, 0, 2.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 1, 2.0);
  builder.add(1, 2, 0.5);
  builder.add(2, 0, -0.5);
  builder.add(2, 2, 2.0);
  const CsrMatrix a = builder.build();
  const Vector b{1.0, 2.0, 3.0};
  Vector x;
  const auto report = Solver(a).solve(b, x);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(residual(a, x, b), 1e-8);
}

// Property-style sweep: CG solves grids of increasing size with bounded
// iteration growth and always reaches the tolerance.
class CgGridSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CgGridSweep, ConvergesOnGrid) {
  const std::size_t m = GetParam();
  const CsrMatrix a = laplacian_2d(m);
  Vector b(a.size(), 1.0);
  Vector x;
  const auto report = conjugate_gradient(a, b, x, *make_ilu0(a));
  EXPECT_TRUE(report.converged) << "grid " << m << "x" << m;
  EXPECT_LT(residual(a, x, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgGridSweep,
                         ::testing::Values(4, 8, 16, 24, 32, 48));

}  // namespace
}  // namespace vstack::la
