// la::Solver handle semantics: workspace reuse, per-call option overrides,
// solve counters, and the bind's ILU(0) -> Jacobi degradation.
#include "la/solver.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace vstack::la {
namespace {

CsrMatrix grid_laplacian(std::size_t m) {
  CooBuilder b(m * m);
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

TEST(SolverHandleTest, RepeatedSolvesAreIdentical) {
  // The reused workspace must not leak state between solves: solving the
  // same system twice from the same guess gives bitwise-equal results,
  // and an interleaved different RHS does not perturb that.
  const CsrMatrix a = grid_laplacian(10);
  const Vector b1(a.size(), 1.0);
  Vector b2(a.size(), 0.0);
  b2[0] = 5.0;
  b2[a.size() - 1] = -3.0;

  Solver solver(a);
  Vector x_first;
  const auto r_first = solver.solve(b1, x_first);

  Vector x_other;
  solver.solve(b2, x_other);  // dirty the workspace

  Vector x_second;
  const auto r_second = solver.solve(b1, x_second);

  ASSERT_TRUE(r_first.converged);
  ASSERT_TRUE(r_second.converged);
  EXPECT_EQ(x_first, x_second);
  EXPECT_EQ(r_first.iterations, r_second.iterations);
}

TEST(SolverHandleTest, PerCallIterativeOverride) {
  const CsrMatrix a = grid_laplacian(16);
  const Vector b(a.size(), 1.0);
  Solver solver(a);

  // A one-iteration CG budget cannot converge; dense LU rescues the call.
  IterativeOptions starved;
  starved.max_iterations = 1;
  starved.relative_tolerance = 1e-12;
  Vector x_starved(a.size(), 0.0);
  const auto r_starved = solver.solve(b, x_starved, starved);
  ASSERT_FALSE(r_starved.attempts.empty());
  EXPECT_EQ(r_starved.attempts.front().method, "cg+ilu0");
  EXPECT_FALSE(r_starved.attempts.front().converged);
  EXPECT_EQ(r_starved.attempts.front().iterations, 1u);

  // The override does not stick: the next call runs on its own options.
  Vector x(a.size(), 0.0);
  const auto r = solver.solve(b, x);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts.front().method, "cg+ilu0");
  EXPECT_GT(r.iterations, 1u);
}

TEST(SolverHandleTest, SolveCountersCountEverySolve) {
  // la.solve.calls and la.solver.solves.<backend> both count every solve
  // through the handle, so "solves >> binds" reads bind amortization.
  const CsrMatrix a = grid_laplacian(8);
  const Vector b(a.size(), 1.0);
  for (const BackendChoice choice :
       {BackendChoice::Reference, BackendChoice::Optimized}) {
    SolveOptions opts;
    opts.backend = choice;
    const std::string counter =
        choice == BackendChoice::Reference ? "la.solver.solves.reference"
                                           : "la.solver.solves.optimized";
    const auto before = telemetry::snapshot();
    Solver solver(a, opts);
    Vector x(a.size(), 0.0);
    ASSERT_TRUE(solver.solve(b, x).converged);
    ASSERT_TRUE(solver.solve(b, x).converged);
    ASSERT_TRUE(solver.solve(b, x).converged);
    const auto after = telemetry::snapshot();
    const auto delta = [&](const std::string& name) {
      return after.counter_value(name) - before.counter_value(name);
    };
#if VSTACK_TELEMETRY_ENABLED
    EXPECT_EQ(delta(counter), 3.0) << counter;
    EXPECT_EQ(delta("la.solve.calls"), 3.0);
    EXPECT_EQ(delta("la.solver.binds"), 1.0);
#else
    EXPECT_EQ(delta(counter), 0.0) << counter;
#endif
  }
}

TEST(SolverHandleTest, EscalationLadderStillRunsThroughHandle) {
  // A starved per-call budget must walk past the CG attempt.
  const CsrMatrix a = grid_laplacian(16);
  const Vector b(a.size(), 1.0);
  Solver solver(a);

  IterativeOptions starved;
  starved.max_iterations = 2;
  starved.relative_tolerance = 1e-12;
  Vector x;
  const auto report = solver.solve(b, x, starved);
  // Dense LU catches it (256 unknowns, under the 4000-unknown cap).
  ASSERT_TRUE(report.converged);
  EXPECT_GT(report.attempts.size(), 1u);
  EXPECT_EQ(report.attempts.back().method, "dense-lu");
}

TEST(SolverHandleTest, UnfactorableMatrixBindsJacobi) {
  // Row 0 has no diagonal entry, so ILU(0) cannot factor: the bind degrades
  // to Jacobi, and solve() still reaches the solution.
  CooBuilder builder(3);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 2.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 1, -1.0);
  builder.add(2, 2, 2.0);
  const CsrMatrix a = builder.build();
  Solver solver(a);
  EXPECT_EQ(solver.preconditioner_label(), "jacobi");

  const Vector x_true{1.0, 2.0, 3.0};
  const Vector b = a.multiply(x_true);
  Vector x;
  const auto report = solver.solve(b, x);
  ASSERT_TRUE(report.converged) << report.diagnostic;
  EXPECT_EQ(report.attempts.front().method, "cg+jacobi");
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-8) << "x[" << i << "]";
  }
}

TEST(SolverHandleTest, RejectsSizeMismatch) {
  const CsrMatrix a = grid_laplacian(4);
  Solver solver(a);
  Vector x;
  EXPECT_THROW(solver.solve(Vector(3, 1.0), x), Error);
}

TEST(SolverHandleTest, MoveTransfersBinding) {
  const CsrMatrix a = grid_laplacian(8);
  Solver first(a);
  const Vector b(a.size(), 1.0);
  Vector x_before;
  const auto r_before = first.solve(b, x_before);

  Solver second = std::move(first);
  EXPECT_EQ(&second.matrix(), &a);
  Vector x_after;
  const auto r_after = second.solve(b, x_after);
  ASSERT_TRUE(r_before.converged);
  ASSERT_TRUE(r_after.converged);
  EXPECT_EQ(x_before, x_after);
}

TEST(SolverHandleTest, ExplicitBackendChoiceSticks) {
  const CsrMatrix a = grid_laplacian(6);
  SolveOptions opts;
  opts.backend = BackendChoice::Optimized;
  Solver solver(a, opts);
  EXPECT_STREQ(solver.backend().name(), "optimized");

  const Vector b(a.size(), 1.0);
  Vector x;
  EXPECT_TRUE(solver.solve(b, x).converged);
}

}  // namespace
}  // namespace vstack::la
