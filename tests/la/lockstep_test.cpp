// la::Solver::solve over several right-hand sides: every x and every report
// must be what one solve() per right-hand side gives, down to the bits, on
// every path out of CG (convergence, a zero right-hand side, a warm start
// already inside tolerance, curvature and non-finite breakdowns,
// stagnation, the iteration budget, the deadline) and through dense LU.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "la/solver.h"
#include "telemetry/telemetry.h"

namespace vstack::la {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Grounded m x m grid Laplacian with uneven conductances, so different
/// right-hand sides need different iteration counts.
CsrMatrix uneven_grid(std::size_t m) {
  CooBuilder b(m * m);
  const auto g = [](std::size_t i, std::size_t j) {
    return 1.0 + 0.37 * static_cast<double>((i * 7 + j * 13) % 11);
  };
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t i = r * m + c;
      b.add(i, i, 1e-3 * static_cast<double>(1 + (i % 5)));
      if (c + 1 < m) {
        const double w = g(i, i + 1);
        b.add(i, i, w);
        b.add(i + 1, i + 1, w);
        b.add(i, i + 1, -w);
        b.add(i + 1, i, -w);
      }
      if (r + 1 < m) {
        const double w = g(i, i + m);
        b.add(i, i, w);
        b.add(i + m, i + m, w);
        b.add(i, i + m, -w);
        b.add(i + m, i, -w);
      }
    }
  }
  return b.build();
}

CsrMatrix from_dense(const std::vector<std::vector<double>>& rows) {
  CooBuilder b(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j] != 0.0) b.add(i, j, rows[i][j]);
    }
  }
  return b.build();
}

/// Right-hand side k: point sources, smooth fields and a random-looking
/// mix, each converging at its own pace.
Vector rhs(std::size_t n, std::size_t k) {
  Vector b(n, 0.0);
  switch (k % 3) {
    case 0:
      b[(k * 131) % n] = 1.0 + static_cast<double>(k);
      b[(k * 17 + 5) % n] -= 0.5;
      break;
    case 1:
      for (std::size_t i = 0; i < n; ++i) {
        b[i] = std::sin(0.01 * static_cast<double>((k + 1) * i));
      }
      break;
    default:
      for (std::size_t i = 0; i < n; ++i) {
        b[i] = static_cast<double>((i * 2654435761u + k * 97) % 1000) / 500.0 -
               1.0;
      }
  }
  return b;
}

void expect_same_bits(const Vector& got, const Vector& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what;
}

void expect_same_report(const SolveReport& got, const SolveReport& want,
                        const std::string& what) {
  EXPECT_EQ(got.converged, want.converged) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(bits(got.residual_norm), bits(want.residual_norm)) << what;
  EXPECT_EQ(got.diagnostic, want.diagnostic) << what;
  EXPECT_EQ(got.deadline_expired, want.deadline_expired) << what;
  ASSERT_EQ(got.attempts.size(), want.attempts.size()) << what;
  for (std::size_t a = 0; a < got.attempts.size(); ++a) {
    EXPECT_EQ(got.attempts[a].method, want.attempts[a].method) << what;
    EXPECT_EQ(got.attempts[a].converged, want.attempts[a].converged) << what;
    EXPECT_EQ(got.attempts[a].iterations, want.attempts[a].iterations)
        << what;
    EXPECT_EQ(bits(got.attempts[a].residual_norm),
              bits(want.attempts[a].residual_norm))
        << what;
  }
}

/// Solves every (b[i], guess[i]) once through the batch overload and once
/// per right-hand side on a second Solver, and requires equal bits, equal
/// reports and equal counter deltas; returns the single-solve reports.
std::vector<SolveReport> expect_batch_matches_singles(
    const CsrMatrix& a, const std::vector<Vector>& b,
    const std::vector<Vector>& guess, const IterativeOptions& iterative = {},
    BackendChoice backend = BackendChoice::Reference) {
  SolveOptions options;
  options.backend = backend;
  const char* const counters[] = {
      "la.solve.calls",           "la.solve.attempts",
      "la.solve.attempts_failed", "la.solve.iterations",
      "la.solve.converged",       "la.solve.failed",
      "la.solver.solves.reference", "la.solver.solves.optimized",
      "la.cg.calls",              "la.cg.iterations"};
  const auto delta = [](const telemetry::MetricsSnapshot& after,
                        const telemetry::MetricsSnapshot& before,
                        const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  Solver single(a, options);
  std::vector<Vector> want_x = guess;
  std::vector<SolveReport> want;
  const auto s0 = telemetry::snapshot();
  for (std::size_t i = 0; i < b.size(); ++i) {
    want.push_back(single.solve(b[i], want_x[i], iterative));
  }
  const auto s1 = telemetry::snapshot();

  Solver batch(a, options);
  std::vector<Vector> got_x = guess;
  const auto b0 = telemetry::snapshot();
  const std::vector<SolveReport> got = batch.solve(b, got_x, iterative);
  const auto b1 = telemetry::snapshot();

  EXPECT_EQ(got.size(), b.size());
  for (std::size_t i = 0; i < b.size() && i < got.size(); ++i) {
    const std::string what = "rhs " + std::to_string(i);
    expect_same_bits(got_x[i], want_x[i], what);
    expect_same_report(got[i], want[i], what);
  }
  for (const char* name : counters) {
    EXPECT_EQ(delta(b1, b0, name), delta(s1, s0, name)) << name;
  }
  return want;
}

class LockstepWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LockstepWidth, MatchesSingleSolvesBitwise) {
  const CsrMatrix a = uneven_grid(20);
  std::vector<Vector> b, guess;
  for (std::size_t k = 0; k < GetParam(); ++k) {
    b.push_back(rhs(a.size(), k));
    guess.emplace_back();  // cold
  }
  const auto reports = expect_batch_matches_singles(a, b, guess);
  std::size_t fewest = reports.front().iterations, most = fewest;
  for (const auto& r : reports) {
    EXPECT_TRUE(r.converged);
    fewest = std::min(fewest, r.iterations);
    most = std::max(most, r.iterations);
  }
  if (GetParam() > 2) {
    EXPECT_LT(fewest, most) << "lanes must retire at different iterations";
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, LockstepWidth,
                         ::testing::Values(std::size_t{1}, kBlockWidth,
                                           kBlockWidth + 1, std::size_t{11}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(LockstepSolveTest, ZeroRhsAndWarmStartInsideTolerance) {
  const CsrMatrix a = uneven_grid(12);
  const std::size_t n = a.size();
  Vector solved;
  ASSERT_TRUE(Solver(a).solve(rhs(n, 1), solved).converged);
  const std::vector<Vector> b{rhs(n, 0), Vector(n, 0.0), rhs(n, 1),
                              rhs(n, 2)};
  const std::vector<Vector> guess{{}, Vector(n, 3.0), solved, {}};
  const auto reports = expect_batch_matches_singles(a, b, guess);
  EXPECT_EQ(reports[1].iterations, 0u);  // zero right-hand side
  EXPECT_EQ(reports[2].iterations, 0u);  // warm start inside tolerance
  EXPECT_GT(reports[0].iterations, 0u);
}

TEST(LockstepSolveTest, BudgetStagnationAndDeadlineEndAsSolveDoes) {
  const CsrMatrix a = uneven_grid(16);
  std::vector<Vector> b, guess;
  for (std::size_t k = 0; k < 7; ++k) {
    b.push_back(rhs(a.size(), k));
    guess.emplace_back(a.size(), 0.25);
  }

  // A budget between the fewest and the most iterations any lane needs:
  // some lanes converge in CG, the rest fall back to dense LU.
  const auto full = expect_batch_matches_singles(a, b, guess);
  std::size_t fewest = full.front().iterations, most = fewest;
  for (const auto& r : full) {
    fewest = std::min(fewest, r.iterations);
    most = std::max(most, r.iterations);
  }
  ASSERT_LT(fewest, most);
  IterativeOptions budget;
  budget.max_iterations = fewest;
  const auto starved = expect_batch_matches_singles(a, b, guess, budget);
  std::size_t in_cg = 0, dense = 0;
  for (const auto& r : starved) {
    ASSERT_TRUE(r.converged);
    (r.attempts.size() == 1 ? in_cg : dense) += 1;
  }
  EXPECT_GT(in_cg, 0u);
  EXPECT_GT(dense, 0u);

  // No iteration meets a zero stagnation factor: every lane stagnates.
  IterativeOptions stagnant;
  stagnant.stagnation_window = 2;
  stagnant.stagnation_factor = 0.0;
  for (const auto& r : expect_batch_matches_singles(a, b, guess, stagnant)) {
    EXPECT_EQ(r.attempts.front().iterations, 2u);
  }

  // A fired deadline skips dense LU and restores every guess.
  IterativeOptions cancelled;
  cancelled.deadline = Deadline::cancellable();
  cancelled.deadline.cancel();
  for (const auto& r : expect_batch_matches_singles(a, b, guess, cancelled)) {
    EXPECT_TRUE(r.deadline_expired);
    EXPECT_FALSE(r.converged);
  }
}

TEST(LockstepSolveTest, BreakdownsFallBackToDenseLuWithSolvesDiagnostic) {
  // Eigenvalues 3 and -1: b = (1, 1) is the positive eigenvector and CG
  // solves it; b = (1, 0) meets negative curvature and dense LU solves it;
  // a NaN right-hand side fails both and keeps its guess.
  const CsrMatrix indefinite = from_dense({{1.0, 2.0}, {2.0, 1.0}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto reports = expect_batch_matches_singles(
      indefinite, {{1.0, 1.0}, {1.0, 0.0}, {nan, 1.0}},
      {{}, {}, {7.0, -7.0}});
  EXPECT_EQ(reports[0].attempts.size(), 1u);
  EXPECT_EQ(reports[1].attempts.back().method, "dense-lu");
  EXPECT_TRUE(reports[1].converged);
  EXPECT_FALSE(reports[2].converged);
  EXPECT_FALSE(reports[2].diagnostic.empty());

  // Rank 1: (1, 0) is inconsistent, so CG and dense LU both fail.
  const CsrMatrix singular = from_dense({{1.0, 1.0}, {1.0, 1.0}});
  const auto failed = expect_batch_matches_singles(
      singular, {{1.0, 0.0}, {2.0, 2.0}}, {{7.0, -7.0}, {}});
  EXPECT_FALSE(failed[0].converged);
  EXPECT_EQ(failed[0].attempts.back().method, "dense-lu(singular)");
}

TEST(LockstepSolveTest, OtherBackendsLoopOverSolve) {
  const CsrMatrix a = uneven_grid(10);
  std::vector<Vector> b, guess;
  for (std::size_t k = 0; k < 3; ++k) {
    b.push_back(rhs(a.size(), k));
    guess.emplace_back();
  }
  expect_batch_matches_singles(a, b, guess, {}, BackendChoice::Optimized);
}

TEST(LockstepSolveTest, RejectsMismatchedGuessCount) {
  const CsrMatrix a = uneven_grid(4);
  Solver solver(a);
  const std::vector<Vector> b(2, Vector(a.size(), 1.0));
  std::vector<Vector> x(1);
  EXPECT_THROW(solver.solve(b, x), Error);
}

}  // namespace
}  // namespace vstack::la
