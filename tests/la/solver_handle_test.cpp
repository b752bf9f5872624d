// la::Solver handle semantics: workspace reuse, solve_many batching,
// iterate_once, and per-call option overrides.
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

CsrMatrix asymmetric_system() {
  CooBuilder b(4);
  for (std::size_t i = 0; i < 4; ++i) b.add(i, i, 4.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -0.5);  // breaks symmetry
  b.add(1, 2, -1.0);
  b.add(2, 1, -1.0);
  b.add(2, 3, -1.0);
  b.add(3, 2, -1.0);
  return b.build();
}

TEST(SolverHandleTest, AutoResolvesKindAtBind) {
  Solver sym(grid_laplacian(4));
  EXPECT_EQ(sym.kind(), SolverKind::Cg);
  EXPECT_EQ(sym.preconditioner_label(), "ilu0");  // PrecondKind::Auto

  const CsrMatrix asym = asymmetric_system();
  Solver gen(asym);
  EXPECT_EQ(gen.kind(), SolverKind::BiCgStab);
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

TEST(SolverHandleTest, SolveManyMatchesLoopedSolve) {
  const CsrMatrix a = grid_laplacian(8);
  std::vector<Vector> bs;
  for (int k = 0; k < 3; ++k) {
    Vector b(a.size(), 0.0);
    b[static_cast<std::size_t>(k) * 7] = 1.0 + k;
    bs.push_back(std::move(b));
  }

  Solver batched(a);
  std::vector<Vector> xs_batched;
  const auto reports = batched.solve_many(bs, xs_batched);

  Solver looped(a);
  ASSERT_EQ(reports.size(), bs.size());
  ASSERT_EQ(xs_batched.size(), bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    Vector x;
    const auto r = looped.solve(bs[i], x);
    ASSERT_TRUE(reports[i].converged);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(xs_batched[i], x) << "rhs " << i;
    EXPECT_EQ(reports[i].iterations, r.iterations) << "rhs " << i;
  }
}

TEST(SolverHandleTest, SolveManyUsesGuessesAndResizesMissing) {
  const CsrMatrix a = grid_laplacian(6);
  const std::vector<Vector> bs(2, Vector(a.size(), 1.0));

  Solver solver(a);
  Vector reference_x;
  const auto cold = solver.solve(bs[0], reference_x);
  ASSERT_TRUE(cold.converged);

  // xs[0] warm-started at the solution, xs[1] absent (zero guess).
  std::vector<Vector> xs;
  xs.push_back(reference_x);
  const auto reports = solver.solve_many(bs, xs);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].converged);
  EXPECT_TRUE(reports[1].converged);
  EXPECT_LE(reports[0].iterations, 1u);           // warm start
  EXPECT_EQ(reports[1].iterations, cold.iterations);  // cold start
}

TEST(SolverHandleTest, PerCallIterativeOverride) {
  const CsrMatrix a = grid_laplacian(16);
  const Vector b(a.size(), 1.0);

  SolveOptions options;
  options.escalate = false;
  Solver solver(a, options);

  IterativeOptions starved;
  starved.max_iterations = 1;
  starved.relative_tolerance = 1e-12;
  Vector x_starved;
  const auto r_starved = solver.solve(b, x_starved, starved);
  EXPECT_FALSE(r_starved.converged);

  // The bind-time options are untouched: a plain solve still converges.
  Vector x;
  EXPECT_TRUE(solver.solve(b, x).converged);
}

TEST(SolverHandleTest, IterateOnceIsSingleAttempt) {
  const CsrMatrix a = grid_laplacian(12);
  const Vector b(a.size(), 1.0);
  Solver solver(a);

  IterativeOptions iterative;
  Vector x(a.size(), 0.0);
  const auto warm = solver.iterate_once(b, x, iterative);
  ASSERT_TRUE(warm.converged);
  // Raw primary-method report: no escalation trail is recorded.
  EXPECT_TRUE(warm.attempts.empty());

  // Starved iterate_once just fails -- no ladder behind it.
  IterativeOptions starved;
  starved.max_iterations = 1;
  starved.relative_tolerance = 1e-12;
  Vector x2(a.size(), 0.0);
  const auto stalled = solver.iterate_once(b, x2, starved);
  EXPECT_FALSE(stalled.converged);
  EXPECT_TRUE(stalled.attempts.empty());
}

TEST(SolverHandleTest, SolveCountersIncludeIterateOnce) {
  // la.solver.solves.<backend> counts every solve through the handle, the
  // iterate_once fast path included, so "solves >> binds" reads bind
  // amortization on the caches that live on that path.  The ladder's own
  // la.solve.calls counts solve() only.
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
    ASSERT_TRUE(solver.iterate_once(b, x, opts.iterative).converged);
    ASSERT_TRUE(solver.iterate_once(b, x, opts.iterative).converged);
    ASSERT_TRUE(solver.solve(b, x).converged);
    const auto after = telemetry::snapshot();
    const auto delta = [&](const std::string& name) {
      return after.counter_value(name) - before.counter_value(name);
    };
#if VSTACK_TELEMETRY_ENABLED
    EXPECT_EQ(delta(counter), 3.0) << counter;
    EXPECT_EQ(delta("la.solve.calls"), 1.0);
    EXPECT_EQ(delta("la.solver.binds"), 1.0);
#else
    EXPECT_EQ(delta(counter), 0.0) << counter;
#endif
  }
}

TEST(SolverHandleTest, EscalationLadderStillRunsThroughHandle) {
  // A starved per-call budget with escalation enabled must walk past the
  // primary CG attempt.
  const CsrMatrix a = grid_laplacian(16);
  const Vector b(a.size(), 1.0);
  Solver solver(a);

  IterativeOptions starved;
  starved.max_iterations = 2;
  starved.relative_tolerance = 1e-12;
  Vector x;
  const auto report = solver.solve(b, x, starved);
  // The dense-LU rung catches it (256 unknowns < dense_fallback_max_size).
  ASSERT_TRUE(report.converged);
  EXPECT_GT(report.attempts.size(), 1u);
  EXPECT_EQ(report.attempts.back().method, "dense-lu");
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
