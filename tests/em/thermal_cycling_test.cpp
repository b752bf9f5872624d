#include "em/thermal_cycling.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace vstack::em {
namespace {

TEST(CoffinMansonTest, ExponentScaling) {
  ThermalCyclingModel m;  // q = 2.2
  const double ratio = m.cycles_to_failure(20.0) / m.cycles_to_failure(40.0);
  EXPECT_NEAR(ratio, std::pow(2.0, 2.2), 1e-9);
}

TEST(CoffinMansonTest, ZeroSwingNeverFails) {
  ThermalCyclingModel m;
  EXPECT_TRUE(std::isinf(m.cycles_to_failure(0.0)));
  EXPECT_TRUE(std::isinf(m.time_to_failure(0.0)));
}

TEST(CoffinMansonTest, TimeIsCyclesTimesPeriod) {
  ThermalCyclingModel m;
  EXPECT_NEAR(m.time_to_failure(30.0),
              m.cycles_to_failure(30.0) * m.cycle_period, 1e-6);
}

TEST(CoffinMansonTest, Validation) {
  ThermalCyclingModel m;
  m.exponent = 0.0;
  EXPECT_THROW(m.cycles_to_failure(10.0), Error);
  m = ThermalCyclingModel{};
  EXPECT_THROW(m.cycles_to_failure(-1.0), Error);
}

TEST(CyclingArrayTest, SingleBumpAtMedian) {
  ThermalCyclingModel m;
  const double t = cycling_array_lifetime({25.0}, m);
  EXPECT_NEAR(t, m.time_to_failure(25.0), 1e-6 * t);
}

TEST(CyclingArrayTest, BiggerSwingsFailFirst) {
  ThermalCyclingModel m;
  const std::vector<double> cool(100, 15.0);
  const std::vector<double> hot(100, 45.0);
  EXPECT_GT(cycling_array_lifetime(cool, m),
            3.0 * cycling_array_lifetime(hot, m));
}

TEST(CyclingArrayTest, MoreBumpsFailSooner) {
  ThermalCyclingModel m;
  const std::vector<double> few(16, 30.0);
  const std::vector<double> many(1024, 30.0);
  EXPECT_GT(cycling_array_lifetime(few, m),
            cycling_array_lifetime(many, m));
}

TEST(CyclingArrayTest, RejectsBadTarget) {
  // The same option checks as the EM arrays.
  ThermalCyclingModel m;
  ArrayMttfOptions opts;
  opts.probability_target = 1.5;
  EXPECT_THROW(cycling_array_lifetime({25.0}, m, opts), Error);
}

TEST(CompetingRiskTest, DominatedByEarlierMechanism) {
  // When one mechanism fails 100x sooner, it sets the combined lifetime.
  const double combined = competing_risk_lifetime(1.0, 0.5, 100.0, 0.5);
  EXPECT_NEAR(combined, competing_risk_lifetime(1.0, 0.5, 1e12, 0.5), 0.05);
  EXPECT_LT(combined, 1.0);  // still slightly earlier than either median
}

TEST(CompetingRiskTest, EqualRisksShortenLifetime) {
  const double single = competing_risk_lifetime(10.0, 0.5, 1e12, 0.5);
  const double both = competing_risk_lifetime(10.0, 0.5, 10.0, 0.5);
  EXPECT_LT(both, single);
  EXPECT_GT(both, 0.5 * single);
}

TEST(CompetingRiskTest, InfiniteRisksLiveForever) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(competing_risk_lifetime(inf, 0.5, inf, 0.5)));
}

TEST(CompetingRiskTest, RejectsBadTarget) {
  EXPECT_THROW(competing_risk_lifetime(1.0, 0.5, 1.0, 0.5, 1.5), Error);
}

}  // namespace
}  // namespace vstack::em
