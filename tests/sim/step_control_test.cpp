#include "sim/step_control.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"

namespace vstack::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

StepControlOptions default_opts() { return {}; }

TEST(StepControlOptionsTest, ValidateRejectsBadTolerances) {
  StepControlOptions o;
  o.rel_tol = 0.0;
  EXPECT_THROW(o.validate(), Error);
  o = {};
  o.abs_tol = -1.0;
  EXPECT_THROW(o.validate(), Error);
  EXPECT_NO_THROW(default_opts().validate());
}

TEST(StepControllerTest, AcceptedStepsAdvanceTimeToTheEnd) {
  StepController ctl(default_opts(), 0.0, 1.0, 0.25, 0.25);
  int guard = 0;
  while (!ctl.done() && !ctl.failed() && ++guard < 100) {
    ctl.begin_step(kInf);
    ASSERT_FALSE(ctl.failed());
    ASSERT_TRUE(ctl.finish_step(0.0, 2));
  }
  EXPECT_TRUE(ctl.done());
  EXPECT_DOUBLE_EQ(ctl.time(), 1.0);
  EXPECT_EQ(ctl.report().accepted_steps, 4u);
  EXPECT_TRUE(ctl.report().ok());
}

TEST(StepControllerTest, LastStepClampsExactlyOntoTEnd) {
  // dt = 0.3 does not divide 1.0; the final step must land on 1.0 exactly.
  StepControlOptions opts;
  StepController ctl(opts, 0.0, 1.0, 0.3, 0.3);
  while (!ctl.done() && !ctl.failed()) {
    ctl.begin_step(kInf);
    ASSERT_TRUE(ctl.finish_step(0.0, 2));
  }
  EXPECT_DOUBLE_EQ(ctl.time(), 1.0);
}

TEST(StepControllerTest, StepClampsOntoEventAndFlagsIt) {
  StepController ctl(default_opts(), 0.0, 1.0, 0.4, 0.4);
  const double dt = ctl.begin_step(0.25);
  EXPECT_DOUBLE_EQ(dt, 0.25);
  EXPECT_TRUE(ctl.ends_on_event());
  ASSERT_TRUE(ctl.finish_step(0.0, 2));
  EXPECT_DOUBLE_EQ(ctl.time(), 0.25);
}

TEST(StepControllerTest, NearbyEventStretchesTheStepSlightly) {
  // Event at 1.05 * dt: the step stretches to land on it rather than leaving
  // a sliver step behind.
  StepController ctl(default_opts(), 0.0, 1.0, 0.4, 0.5);
  const double dt = ctl.begin_step(0.42);
  EXPECT_DOUBLE_EQ(dt, 0.42);
  EXPECT_TRUE(ctl.ends_on_event());
}

TEST(StepControllerTest, DistantEventDoesNotClamp) {
  StepController ctl(default_opts(), 0.0, 10.0, 0.4, 0.4);
  const double dt = ctl.begin_step(5.0);
  EXPECT_DOUBLE_EQ(dt, 0.4);
  EXPECT_FALSE(ctl.ends_on_event());
}

TEST(StepControllerTest, LteRejectionShrinksWithoutAdvancingTime) {
  StepController ctl(default_opts(), 0.0, 1.0, 0.4, 0.4);
  const double dt0 = ctl.begin_step(kInf);
  EXPECT_FALSE(ctl.finish_step(8.0, 2));  // err > 1 -> rejected
  EXPECT_DOUBLE_EQ(ctl.time(), 0.0);
  const double dt1 = ctl.begin_step(kInf);
  EXPECT_LT(dt1, dt0);
  EXPECT_EQ(ctl.report().lte_rejections, 1u);
  EXPECT_EQ(ctl.report().rejected_steps, 1u);
}

TEST(StepControllerTest, GrowBackIsBoundedByDtGrowAndDtMax) {
  StepController ctl(default_opts(), 0.0, 100.0, 1.0, 8.0);
  ctl.begin_step(kInf);
  ASSERT_TRUE(ctl.finish_step(1e-12, 2));  // tiny error: wants huge growth
  EXPECT_DOUBLE_EQ(ctl.begin_step(kInf), kDtGrow);  // capped at kDtGrow
  ASSERT_TRUE(ctl.finish_step(1e-12, 2));
  ctl.begin_step(kInf);
  ASSERT_TRUE(ctl.finish_step(1e-12, 2));
  ctl.begin_step(kInf);
  ASSERT_TRUE(ctl.finish_step(1e-12, 2));
  EXPECT_DOUBLE_EQ(ctl.begin_step(kInf), 8.0);  // capped at dt_max
}

TEST(StepControllerTest, BorderlineAcceptNeverGrowsTheStep) {
  // err just under 1: accepted, but kDtMargin * err^(-1/3) < 1 shrinks dt.
  StepController ctl(default_opts(), 0.0, 100.0, 1.0, 8.0);
  ctl.begin_step(kInf);
  ASSERT_TRUE(ctl.finish_step(0.99, 2));
  EXPECT_LT(ctl.begin_step(kInf), 1.0);
}

TEST(StepControllerTest, RepeatedRejectionCollapsesWithDiagnostic) {
  StepController ctl(default_opts(), 0.0, 1.0, 0.1, 0.1);
  int guard = 0;
  while (!ctl.failed() && ++guard < 100) {
    ctl.begin_step(kInf);
    if (ctl.failed()) break;
    ctl.reject_step("test solver failure");
  }
  EXPECT_TRUE(ctl.failed());
  ctl.finalize();
  EXPECT_EQ(ctl.report().status, TransientStatus::SolverFailure);
  EXPECT_FALSE(ctl.report().ok());
  EXPECT_FALSE(ctl.report().diagnostic.empty());
  // Halving from 0.1 stays above the 1e-8 floor, so the consecutive
  // rejection limit is what gives up.
  EXPECT_EQ(ctl.report().solver_rejections,
            static_cast<std::size_t>(kMaxConsecutiveRejections) + 1);
}

TEST(StepControllerTest, StepBudgetTruncatesRun) {
  StepControlOptions opts;
  opts.max_steps = 3;
  StepController ctl(opts, 0.0, 1000.0, 0.1, 0.1);
  int guard = 0;
  while (!ctl.done() && !ctl.failed() && ++guard < 100) {
    ctl.begin_step(kInf);
    if (ctl.failed()) break;
    ctl.finish_step(0.0, 2);
  }
  EXPECT_TRUE(ctl.failed());
  ctl.finalize();
  EXPECT_EQ(ctl.report().status, TransientStatus::BudgetExhausted);
  EXPECT_EQ(ctl.report().accepted_steps, 3u);
  // The truncated prefix is still labeled with how far it got.
  EXPECT_NEAR(ctl.report().end_time, 0.3, 1e-12);
}

TEST(StepControllerTest, ResetDtForcesSmallNextStep) {
  StepController ctl(default_opts(), 0.0, 1.0, 0.25, 0.25);
  ctl.begin_step(kInf);
  ASSERT_TRUE(ctl.finish_step(0.0, 2));
  ctl.reset_dt(0.01);
  EXPECT_DOUBLE_EQ(ctl.begin_step(kInf), 0.01);
}

TEST(StepControllerTest, ReportTracksDtRange) {
  StepController ctl(default_opts(), 0.0, 1.0, 0.25, 0.25);
  ctl.begin_step(kInf);
  ASSERT_TRUE(ctl.finish_step(0.0, 2));
  ctl.reset_dt(0.01);
  ctl.begin_step(kInf);
  ASSERT_TRUE(ctl.finish_step(0.0, 2));
  EXPECT_DOUBLE_EQ(ctl.report().min_dt, 0.01);
  EXPECT_DOUBLE_EQ(ctl.report().max_dt, 0.25);
}

TEST(TransientReportTest, EventTrailIsBounded) {
  TransientReport report;
  for (int i = 0; i < 100; ++i) {
    report.record_event(static_cast<double>(i), "event");
  }
  EXPECT_EQ(report.events.size(), TransientReport::kMaxEvents);
  EXPECT_EQ(report.events_dropped, 100 - TransientReport::kMaxEvents);
}

TEST(TransientReportTest, SummaryMentionsStatusAndCounts) {
  TransientReport report;
  report.status = TransientStatus::BudgetExhausted;
  report.accepted_steps = 42;
  const std::string s = report.summary();
  EXPECT_NE(s.find("42"), std::string::npos) << s;
  EXPECT_NE(s.find(to_string(TransientStatus::BudgetExhausted)),
            std::string::npos)
      << s;
}

TEST(ErrorNormTest, NormalizesPerEntry) {
  // |1.0 - 1.1| / (abs 0.01 + rel 0.1 * 1.0) ~ 0.909...
  const double err = error_norm({1.0}, {1.1}, 0.1, 0.01);
  EXPECT_NEAR(err, 0.1 / 0.11, 1e-12);
  // Max-norm across entries.
  const double err2 = error_norm({1.0, 0.0}, {1.1, 0.05}, 0.1, 0.01);
  EXPECT_NEAR(err2, 0.05 / 0.01, 1e-12);
}

TEST(GuardTest, FiniteAndBounded) {
  EXPECT_TRUE(finite_and_bounded({1.0, -kOverflowLimit, 0.0}));
  EXPECT_FALSE(finite_and_bounded({1.0, 2.0 * kOverflowLimit}));
  EXPECT_FALSE(finite_and_bounded({std::nan("")}));
  EXPECT_FALSE(finite_and_bounded({kInf}));
  EXPECT_TRUE(finite_and_bounded({}));
}

TEST(PeriodicEventsTest, NextAfterWalksTheSchedule) {
  PeriodicEvents ev(1.0, {0.25, 0.75});
  EXPECT_DOUBLE_EQ(ev.next_after(0.0), 0.25);
  EXPECT_DOUBLE_EQ(ev.next_after(0.25), 0.75);  // strictly after
  EXPECT_DOUBLE_EQ(ev.next_after(0.8), 1.25);   // wraps to the next period
  EXPECT_DOUBLE_EQ(ev.next_after(10.3), 10.75);
}

TEST(PeriodicEventsTest, SnapToleranceSkipsJustLandedEdge) {
  PeriodicEvents ev(1.0, {0.5});
  // A point within the snap tolerance of the edge counts as ON it.
  EXPECT_DOUBLE_EQ(ev.next_after(0.5 + 1e-12), 1.5);
}

TEST(PeriodicEventsTest, FractionZeroEdgeMapsToPeriodBoundaries) {
  PeriodicEvents ev(2.0, {0.0});
  EXPECT_DOUBLE_EQ(ev.next_after(0.0), 2.0);
  EXPECT_DOUBLE_EQ(ev.next_after(1.0), 2.0);
  EXPECT_DOUBLE_EQ(ev.next_after(2.0), 4.0);
}

TEST(PeriodicEventsTest, EmptyScheduleIsEmpty) {
  PeriodicEvents ev;
  EXPECT_TRUE(ev.empty());
  EXPECT_FALSE(PeriodicEvents(1.0, {0.25}).empty());
}

TEST(FixedGridTest, StepCountRoundsAndSaturates) {
  EXPECT_EQ(fixed_step_count(1e-6, 5e-9), 200u);
  EXPECT_EQ(fixed_step_count(1e-6, 1e-9), 1000u);  // 999.9999999999999
  EXPECT_EQ(fixed_step_count(1e-8, 3e-9), 3u);
  EXPECT_EQ(fixed_step_count(1.0, 1e-30),
            std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(divides_evenly(1e-6, 5e-9));
  EXPECT_TRUE(divides_evenly(1.0, 1e-30));
  EXPECT_FALSE(divides_evenly(1e-8, 3e-9));
  EXPECT_FALSE(divides_evenly(1.0, 2.0));
}

TEST(FixedGridTest, StepBudgetStopsTheGridAndFinishStampsTheReport) {
  StepControlOptions opts;
  opts.max_steps = 3;
  const FixedGrid grid(opts, 0.25, 1e6);
  EXPECT_EQ(grid.steps(), 4'000'000u);
  EXPECT_EQ(grid.reserve(), 3u);
  TransientReport report;
  std::size_t step = 0;
  for (; step < grid.steps(); ++step) {
    if (!grid.admit(grid.time(step), report)) break;
    ++report.accepted_steps;
  }
  grid.finish(report);
  EXPECT_EQ(step, 3u);
  EXPECT_EQ(report.status, TransientStatus::BudgetExhausted);
  EXPECT_EQ(report.diagnostic,
            "step budget of 3 exhausted at t = 1.000000 s; result truncated");
  EXPECT_EQ(report.min_dt, 0.25);
  EXPECT_EQ(report.max_dt, 0.25);
}

TEST(EventScheduleTest, MergesPeriodicAndOneShotTimes) {
  EventSchedule sched(10.0);
  sched.add_periodic(PeriodicEvents(1.0, {0.5}));
  sched.add_time(0.7);
  sched.add_time(2.25);
  EXPECT_DOUBLE_EQ(sched.next_after(0.0), 0.5);
  EXPECT_DOUBLE_EQ(sched.next_after(0.5), 0.7);   // one-shot between edges
  EXPECT_DOUBLE_EQ(sched.next_after(0.7), 1.5);
  EXPECT_DOUBLE_EQ(sched.next_after(2.0), 2.25);
  EXPECT_DOUBLE_EQ(sched.next_after(2.25), 2.5);
}

TEST(EventScheduleTest, OneShotTimesAreSortedOnInsert) {
  EventSchedule sched(1.0);
  sched.add_time(0.9);
  sched.add_time(0.1);
  sched.add_time(0.5);
  EXPECT_DOUBLE_EQ(sched.next_after(0.0), 0.1);
  EXPECT_DOUBLE_EQ(sched.next_after(0.1), 0.5);
  EXPECT_DOUBLE_EQ(sched.next_after(0.5), 0.9);
}

TEST(EventScheduleTest, SnapToleranceSkipsJustLandedOneShot) {
  EventSchedule sched(1.0);
  sched.add_time(0.5);
  // Landing within the horizon-scaled tolerance of the event counts as ON
  // it -- the controller must not be asked to hit the same instant twice.
  EXPECT_GT(sched.next_after(0.5 + 1e-13), 1e300);
}

TEST(EventScheduleTest, NonPositiveTimesNeverReturned) {
  EventSchedule sched(1.0);
  sched.add_time(0.0);
  sched.add_time(-1.0);
  sched.add_time(0.25);
  EXPECT_DOUBLE_EQ(sched.next_after(0.0), 0.25);
}

TEST(EventScheduleTest, EmptinessTracksBothKinds) {
  EventSchedule sched(1.0);
  EXPECT_TRUE(sched.empty());
  sched.add_time(0.5);
  EXPECT_FALSE(sched.empty());
  EventSchedule periodic_only(1.0);
  periodic_only.add_periodic(PeriodicEvents(1.0, {0.5}));
  EXPECT_FALSE(periodic_only.empty());
}

}  // namespace
}  // namespace vstack::sim
