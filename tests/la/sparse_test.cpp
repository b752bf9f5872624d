#include "la/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "la/reorder.h"

namespace vstack::la {
namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Bitwise equality of two CSR matrices: structure and every value's bits.
void expect_identical(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values().size(), b.values().size());
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    ASSERT_EQ(bits_of(a.values()[k]), bits_of(b.values()[k])) << "entry " << k;
  }
}

struct Position {
  std::size_t row = 0;
  std::size_t col = 0;
};

/// A value whose magnitude spans 24 decades, so a sum of several of them
/// depends on the order it is taken in.
double mixed_magnitude(Rng& rng) {
  const double exponent = static_cast<double>(rng.uniform_index(25)) - 12.0;
  return rng.uniform(-1.0, 1.0) * std::pow(10.0, exponent);
}

TEST(CooBuilderTest, AccumulatesDuplicates) {
  CooBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 2, -1.0);
  const CsrMatrix a = b.build();
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 0.0);
}

TEST(CooBuilderTest, RejectsOutOfRangeStamp) {
  CooBuilder b(2);
  EXPECT_THROW(b.add(2, 0, 1.0), Error);
  EXPECT_THROW(b.add(0, 5, 1.0), Error);
}

TEST(CooBuilderTest, RejectsZeroDimension) {
  EXPECT_THROW(CooBuilder(0), Error);
}

TEST(CsrAssemblyTest, ReplayIsBitIdenticalToBuild) {
  // Random stamp list: 150 distinct positions on a 40x40 matrix, each
  // stamped 8 to 15 times, added in shuffled order.
  constexpr std::size_t kN = 40;
  Rng rng(2024);
  std::vector<Position> distinct;
  while (distinct.size() < 150) {
    const Position p{rng.uniform_index(kN), rng.uniform_index(kN)};
    const bool seen = std::any_of(
        distinct.begin(), distinct.end(),
        [&](const Position& q) { return q.row == p.row && q.col == p.col; });
    if (!seen) distinct.push_back(p);
  }
  std::vector<Position> stamps;
  for (const Position& p : distinct) {
    const std::size_t copies = 8 + rng.uniform_index(8);
    for (std::size_t c = 0; c < copies; ++c) stamps.push_back(p);
  }
  rng.shuffle(stamps);

  CooBuilder positions(kN);
  for (const Position& p : stamps) positions.add(p.row, p.col, 0.0);
  const CsrAssembly plan(positions);
  ASSERT_EQ(plan.stamp_count(), stamps.size());
  ASSERT_EQ(plan.nnz(), distinct.size());

  for (int set = 0; set < 4; ++set) {
    std::vector<double> values(stamps.size());
    for (double& v : values) v = mixed_magnitude(rng);
    CooBuilder fresh(kN);
    for (std::size_t k = 0; k < stamps.size(); ++k) {
      fresh.add(stamps[k].row, stamps[k].col, values[k]);
    }
    const CsrMatrix built = fresh.build();

    if (set == 0) {
      // The values are order-sensitive: summing some entry's stamps in
      // reverse add() order changes its bits relative to build(), so the
      // bitwise comparison below can see a replay that sums in another
      // order than build()'s.
      bool order_visible = false;
      for (const Position& p : distinct) {
        double reversed = 0.0;
        bool first = true;
        for (std::size_t k = stamps.size(); k-- > 0;) {
          if (stamps[k].row != p.row || stamps[k].col != p.col) continue;
          reversed = first ? values[k] : reversed + values[k];
          first = false;
        }
        if (bits_of(reversed) != bits_of(built.at(p.row, p.col))) {
          order_visible = true;
          break;
        }
      }
      ASSERT_TRUE(order_visible);
    }

    expect_identical(plan.assemble(values), built);
  }
}

TEST(CsrAssemblyTest, RejectsWrongValueCount) {
  CooBuilder positions(3);
  positions.add(0, 0, 0.0);
  positions.add(0, 0, 0.0);
  positions.add(2, 1, 0.0);
  const CsrAssembly plan(positions);
  EXPECT_THROW(plan.assemble({1.0, 2.0}), Error);
  const CsrMatrix a = plan.assemble({1.0, 2.0, 3.0});
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 3.0);
}

/// permute_symmetric as it was first written: every entry re-stamped into
/// a CooBuilder and built.  The reference for the row-gather version.
CsrMatrix permute_by_rebuild(const CsrMatrix& a,
                             const std::vector<std::size_t>& perm) {
  const std::size_t n = a.size();
  std::vector<std::size_t> inverse(n);
  for (std::size_t i = 0; i < n; ++i) inverse[perm[i]] = i;
  CooBuilder builder(n);
  for (std::size_t old_row = 0; old_row < n; ++old_row) {
    for (std::size_t k = a.row_ptr()[old_row]; k < a.row_ptr()[old_row + 1];
         ++k) {
      builder.add(inverse[old_row], inverse[a.col_idx()[k]], a.values()[k]);
    }
  }
  return builder.build();
}

TEST(PermuteSymmetricTest, MatchesRebuildOnRandomShuffles) {
  constexpr std::size_t kN = 60;
  Rng rng(99);
  CooBuilder b(kN);
  for (std::size_t i = 0; i < kN; ++i) b.add(i, i, 4.0 + rng.uniform());
  for (int e = 0; e < 240; ++e) {
    b.add(rng.uniform_index(kN), rng.uniform_index(kN), mixed_magnitude(rng));
  }
  const CsrMatrix a = b.build();

  std::vector<std::size_t> perm(kN);
  for (std::size_t i = 0; i < kN; ++i) perm[i] = i;
  for (int trial = 0; trial < 5; ++trial) {
    rng.shuffle(perm);
    expect_identical(permute_symmetric(a, perm), permute_by_rebuild(a, perm));
  }
}

TEST(PermuteSymmetricTest, RejectsNonPermutation) {
  CooBuilder b(3);
  for (std::size_t i = 0; i < 3; ++i) b.add(i, i, 1.0);
  const CsrMatrix a = b.build();
  EXPECT_THROW(permute_symmetric(a, {0, 1}), Error);
  EXPECT_THROW(permute_symmetric(a, {0, 1, 1}), Error);
}

TEST(CsrMatrixTest, MultiplyIdentity) {
  CooBuilder b(4);
  for (std::size_t i = 0; i < 4; ++i) b.add(i, i, 1.0);
  const CsrMatrix a = b.build();
  const Vector x{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(a.multiply(x), x);
}

TEST(CsrMatrixTest, MultiplyGeneral) {
  // [1 2; 3 4] * [5; 6] = [17; 39]
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);
  b.add(1, 1, 4.0);
  const CsrMatrix a = b.build();
  const Vector y = a.multiply({5.0, 6.0});
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(CsrMatrixTest, ColumnsSortedWithinRows) {
  CooBuilder b(3);
  b.add(0, 2, 1.0);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  const CsrMatrix a = b.build();
  ASSERT_EQ(a.nnz(), 3u);
  EXPECT_EQ(a.col_idx()[0], 0u);
  EXPECT_EQ(a.col_idx()[1], 1u);
  EXPECT_EQ(a.col_idx()[2], 2u);
}

TEST(CsrMatrixTest, DiagonalExtraction) {
  CooBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(1, 2, 5.0);  // off-diagonal only in row 1
  b.add(2, 2, -7.0);
  const Vector d = b.build().diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], -7.0);
}

TEST(CsrMatrixTest, MultiplyRejectsWrongSize) {
  CooBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  const CsrMatrix a = b.build();
  Vector y;
  EXPECT_THROW(a.multiply({1.0, 2.0, 3.0}, y), Error);
}

}  // namespace
}  // namespace vstack::la
