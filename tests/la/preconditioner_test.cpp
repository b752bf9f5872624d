#include "la/preconditioner.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "la/dense_lu.h"

namespace vstack::la {
namespace {

TEST(JacobiTest, InvertsDiagonalMatrixExactly) {
  CooBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(1, 1, 4.0);
  b.add(2, 2, 8.0);
  JacobiPreconditioner p(b.build());
  Vector z;
  p.apply({2.0, 4.0, 8.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 1.0);
  EXPECT_DOUBLE_EQ(z[2], 1.0);
}

TEST(JacobiTest, ZeroDiagonalPassesThrough) {
  CooBuilder b(2);
  b.add(0, 0, 2.0);
  b.add(1, 0, 1.0);  // row 1 has no diagonal entry
  b.add(1, 1, 0.0);
  JacobiPreconditioner p(b.build());
  Vector z;
  p.apply({4.0, 3.0}, z);
  EXPECT_DOUBLE_EQ(z[0], 2.0);
  EXPECT_DOUBLE_EQ(z[1], 3.0);
}

TEST(Ilu0Test, ExactForTriangularPattern) {
  // For a matrix whose LU factors fit inside its own sparsity pattern
  // (e.g. tridiagonal), ILU(0) is a complete factorization: applying it
  // solves the system exactly.
  const std::size_t n = 12;
  CooBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  const CsrMatrix a = b.build();
  Ilu0Preconditioner p(a);

  Vector rhs(n, 1.0);
  Vector z;
  p.apply(rhs, z);

  const Vector reference = DenseLu(DenseMatrix::from_csr(a)).solve(rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(z[i], reference[i], 1e-12);
  }
}

TEST(Ilu0Test, RejectsMissingDiagonal) {
  CooBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  EXPECT_THROW(Ilu0Preconditioner{b.build()}, Error);
}

TEST(Ilu0Test, ApplyRejectsWrongSize) {
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  Ilu0Preconditioner p(b.build());
  Vector z;
  EXPECT_THROW(p.apply({1.0, 2.0, 3.0}, z), Error);
}

}  // namespace
}  // namespace vstack::la
