#include "la/preconditioner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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

/// Uneven grounded grid Laplacian with long-range couplings, so ILU(0)
/// drops fill and its factors differ from A's values.
CsrMatrix uneven_laplacian(std::size_t m) {
  CooBuilder b(m * m);
  const auto couple = [&](std::size_t i, std::size_t j, double w) {
    b.add(i, i, w);
    b.add(j, j, w);
    b.add(i, j, -w);
    b.add(j, i, -w);
  };
  for (std::size_t i = 0; i < m * m; ++i) {
    b.add(i, i, 0.01 * static_cast<double>(1 + i % 3));
    const double w = 1.0 + 0.3 * static_cast<double>((i * 7) % 5);
    if ((i + 1) % m != 0) couple(i, i + 1, w);
    if (i + m < m * m) couple(i, i + m, 2.0 - 0.1 * w);
    if (i + 3 * m + 1 < m * m) couple(i, i + 3 * m + 1, 0.05 * w);
  }
  return b.build();
}

Vector test_vector(std::size_t n, std::size_t k) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::cos(0.3 * static_cast<double>(i * (k + 1))) +
           static_cast<double>(k);
  }
  return v;
}

/// IKJ ILU(0) on A's combined CSR pattern and its triangular solves, as
/// la built them before the factors were split into L and U arrays: the
/// split storage must reproduce these bits.
Vector combined_storage_ilu0_apply(const CsrMatrix& a, const Vector& r) {
  const std::size_t n = a.size();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  Vector lu = a.values();
  std::vector<std::size_t> diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[k] == i) diag[i] = k;
    }
  }
  std::vector<std::ptrdiff_t> pos(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      pos[ci[k]] = static_cast<std::ptrdiff_t>(k);
    }
    for (std::size_t k = rp[i]; k < rp[i + 1] && ci[k] < i; ++k) {
      const std::size_t j = ci[k];
      const double lij = lu[k] / lu[diag[j]];
      lu[k] = lij;
      for (std::size_t kk = diag[j] + 1; kk < rp[j + 1]; ++kk) {
        if (pos[ci[kk]] >= 0) {
          lu[static_cast<std::size_t>(pos[ci[kk]])] -= lij * lu[kk];
        }
      }
    }
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) pos[ci[k]] = -1;
  }
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = r[i];
    for (std::size_t k = rp[i]; k < diag[i]; ++k) s -= lu[k] * z[ci[k]];
    z[i] = s;
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = z[i];
    for (std::size_t k = diag[i] + 1; k < rp[i + 1]; ++k) {
      s -= lu[k] * z[ci[k]];
    }
    z[i] = s / lu[diag[i]];
  }
  return z;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Ilu0Test, SplitStorageKeepsCombinedStorageBits) {
  const CsrMatrix a = uneven_laplacian(12);
  const Ilu0Preconditioner p(a);
  for (std::size_t k = 0; k < 3; ++k) {
    const Vector r = test_vector(a.size(), k);
    Vector z;
    p.apply(r, z);
    EXPECT_TRUE(same_bits(z, combined_storage_ilu0_apply(a, r))) << k;
  }
}

TEST(PreconditionerBlockTest, BlockApplyMatchesApplyBitwise) {
  const CsrMatrix a = uneven_laplacian(9);
  const std::size_t n = a.size();
  const Ilu0Preconditioner ilu0(a);
  const JacobiPreconditioner jacobi(a);
  for (const Preconditioner* p :
       {static_cast<const Preconditioner*>(&ilu0),
        static_cast<const Preconditioner*>(&jacobi)}) {
    for (std::size_t w = 1; w <= kBlockWidth; ++w) {
      Vector block(n * w);
      for (std::size_t j = 0; j < w; ++j) {
        const Vector r = test_vector(n, j);
        for (std::size_t i = 0; i < n; ++i) block[i * w + j] = r[i];
      }
      Vector z_block;
      p->apply_block(block, z_block, w);
      for (std::size_t j = 0; j < w; ++j) {
        Vector z;
        p->apply(test_vector(n, j), z);
        Vector lane(n);
        for (std::size_t i = 0; i < n; ++i) lane[i] = z_block[i * w + j];
        EXPECT_TRUE(same_bits(lane, z)) << "width " << w << " lane " << j;
      }
    }
    Vector z;
    EXPECT_THROW(p->apply_block(Vector(n * 2), z, 3), Error);
    EXPECT_THROW(p->apply_block(Vector(n * (kBlockWidth + 1)), z,
                                kBlockWidth + 1),
                 Error);
  }
}

}  // namespace
}  // namespace vstack::la
