#include "em/array_mttf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "em/thermal_cycling.h"

namespace vstack::em {
namespace {

TEST(ArrayMttfTest, SingleConductorAtMedian) {
  BlackModel black;
  const double t50 = black.median_ttf(10e-3);
  const double t = array_mttf({10e-3}, black);
  EXPECT_NEAR(t, t50, 1e-6 * t50);
}

TEST(ArrayMttfTest, MoreConductorsFailSooner) {
  // Identical stress, more elements: first failure arrives earlier.
  BlackModel black;
  const double one = array_mttf({10e-3}, black);
  const std::vector<double> many(100, 10e-3);
  const double hundred = array_mttf(many, black);
  EXPECT_LT(hundred, one);
  // But not absurdly so (lognormal tails): within a factor ~5 at sigma 0.5.
  EXPECT_GT(hundred, one / 10.0);
}

TEST(ArrayMttfTest, HalvingCurrentExtendsLifetimeFourfold) {
  BlackModel black;  // n = 2
  const std::vector<double> high(64, 20e-3);
  const std::vector<double> low(64, 10e-3);
  const double ratio = array_mttf(low, black) / array_mttf(high, black);
  EXPECT_NEAR(ratio, 4.0, 0.01);
}

TEST(ArrayMttfTest, DominatedByHottestConductor) {
  BlackModel black;
  // One heavily-stressed conductor among many idle ones.
  std::vector<double> currents(500, 1e-4);
  currents[250] = 50e-3;
  const double t = array_mttf(currents, black);
  const double t_hot = black.median_ttf(50e-3);
  EXPECT_LT(t, t_hot);
  EXPECT_GT(t, 0.1 * t_hot);
}

TEST(ArrayMttfTest, UnstressedArrayLivesForever) {
  BlackModel black;
  const double t = array_mttf({0.0, 0.0, 0.0}, black);
  EXPECT_TRUE(std::isinf(t));
}

TEST(ArrayMttfTest, ProbabilityIsMonotone) {
  BlackModel black;
  Rng rng(4);
  std::vector<double> currents(64);
  for (auto& c : currents) c = rng.uniform(1e-3, 30e-3);
  const double t50 = array_mttf(currents, black);
  const double p_lo =
      array_failure_probability(t50 * 0.5, currents, black, 0.5);
  const double p_mid = array_failure_probability(t50, currents, black, 0.5);
  const double p_hi =
      array_failure_probability(t50 * 2.0, currents, black, 0.5);
  EXPECT_LT(p_lo, p_mid);
  EXPECT_LT(p_mid, p_hi);
  EXPECT_NEAR(p_mid, 0.5, 1e-6);
}

TEST(ArrayMttfTest, CustomProbabilityTarget) {
  BlackModel black;
  const std::vector<double> currents(32, 15e-3);
  ArrayMttfOptions early;
  early.probability_target = 0.01;
  ArrayMttfOptions late;
  late.probability_target = 0.99;
  EXPECT_LT(array_mttf(currents, black, early),
            array_mttf(currents, black, late));
}

TEST(ArrayMttfTest, UniformScalingInvariance) {
  // MTTF ratio between two designs is invariant to the Black prefactor --
  // this justifies the paper's normalized reporting.
  BlackModel a;
  BlackModel b = a;
  b.prefactor = 123.0;
  const std::vector<double> x(16, 5e-3), y(16, 9e-3);
  const double ratio_a = array_mttf(x, a) / array_mttf(y, a);
  const double ratio_b = array_mttf(x, b) / array_mttf(y, b);
  EXPECT_NEAR(ratio_a, ratio_b, 1e-6 * ratio_a);
}

TEST(ArrayMttfTest, RejectsEmptyArray) {
  BlackModel black;
  EXPECT_THROW(array_mttf({}, black), Error);
}

TEST(ArrayMttfTest, RejectsBadTarget) {
  BlackModel black;
  ArrayMttfOptions opts;
  opts.probability_target = 1.0;
  EXPECT_THROW(array_mttf({1e-3}, black, opts), Error);
}

TEST(ArrayMttfTest, RejectsNonFiniteCurrents) {
  // A NaN current is not an unstressed conductor, and an infinite one has
  // no finite lifetime to bracket.
  BlackModel black;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(array_mttf({nan}, black), Error);
  EXPECT_THROW(array_mttf({0.0, nan}, black), Error);
  EXPECT_THROW(array_mttf({1e-3, nan}, black), Error);
  EXPECT_THROW(array_mttf({1e-3, inf}, black), Error);
  EXPECT_THROW(array_mttf({1e-3, -inf}, black), Error);
}

TEST(ArrayMttfTest, RejectsZeroTolerance) {
  // A zero tolerance would bisect forever once lo and hi are adjacent.
  BlackModel black;
  ArrayMttfOptions opts;
  opts.relative_tolerance = 0.0;
  EXPECT_THROW(array_mttf({1e-3}, black, opts), Error);
}

TEST(ArrayMttfTest, RejectsNanTolerance) {
  // A NaN tolerance would end the bisection at once, at the bracket's
  // midpoint.
  BlackModel black;
  ArrayMttfOptions opts;
  opts.relative_tolerance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(array_mttf({1e-3}, black, opts), Error);
}

// ---------------------------------------------------------------------------
// Bit-identity guard.  Array lifetimes evaluate P(t) once per run of equal
// consecutive medians; the per-conductor loop and bisection below are the
// reference they must reproduce bit for bit.

double reference_probability(double time, const std::vector<double>& medians,
                             double sigma) {
  double log_survive = 0.0;
  for (const double t50 : medians) {
    const double f = lognormal_failure_cdf(time, t50, sigma);
    if (f >= 1.0) return 1.0;
    log_survive += std::log1p(-f);
  }
  return 1.0 - std::exp(log_survive);
}

double reference_lifetime(const std::vector<double>& medians,
                          const ArrayMttfOptions& options) {
  double min_ttf = std::numeric_limits<double>::infinity();
  for (const double t : medians) min_ttf = std::min(min_ttf, t);
  if (std::isinf(min_ttf)) return min_ttf;
  const auto p_at = [&](double log_t) {
    return reference_probability(std::exp(log_t), medians, options.sigma);
  };
  double lo = std::log(min_ttf) - 20.0 * options.sigma;
  double hi = std::log(min_ttf) + 20.0 * options.sigma;
  EXPECT_LT(p_at(lo), options.probability_target);
  for (int k = 0; k < 60 && p_at(hi) < options.probability_target; ++k) {
    hi += 5.0 * options.sigma;
  }
  while (hi - lo > options.relative_tolerance) {
    const double mid = 0.5 * (lo + hi);
    (p_at(mid) < options.probability_target ? lo : hi) = mid;
  }
  return std::exp(0.5 * (lo + hi));
}

void expect_same_bits(double expected, double actual, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected),
            std::bit_cast<std::uint64_t>(actual))
      << what << ": reference " << expected << ", got " << actual;
}

/// Runs of 1-12 equal currents: 20 % of runs unstressed, 10 % negative, and
/// a third reusing the previous magnitude so runs also meet across zeros
/// and sign changes.
std::vector<double> random_run_array(Rng& rng, std::size_t size) {
  std::vector<double> currents;
  double magnitude = rng.uniform(1e-3, 40e-3);
  while (currents.size() < size) {
    const std::size_t length = 1 + rng.uniform_index(12);
    if (rng.uniform() >= 1.0 / 3.0) magnitude = rng.uniform(1e-3, 40e-3);
    const double kind = rng.uniform();
    const double current =
        kind < 0.2 ? 0.0 : (kind < 0.3 ? -magnitude : magnitude);
    for (std::size_t k = 0; k < length && currents.size() < size; ++k) {
      currents.push_back(current);
    }
  }
  return currents;
}

/// The solver's dense-TSV shape: groups of ~50 conductors, each with its 9
/// crowded TSVs at one shared hot current and the rest at zero.
std::vector<double> dense_tsv_array(Rng& rng, std::size_t size) {
  std::vector<double> currents;
  double hot = rng.uniform(1e-3, 40e-3);
  while (currents.size() < size) {
    const std::size_t group = 45 + rng.uniform_index(11);
    if (rng.uniform() >= 0.25) hot = rng.uniform(1e-3, 40e-3);
    for (std::size_t k = 0; k < group && currents.size() < size; ++k) {
      currents.push_back(k < 9 ? hot : 0.0);
    }
  }
  return currents;
}

/// Checks every array lifetime, and P(t) around the MTTF, against the
/// per-conductor reference.
void expect_matches_reference(Rng& rng, const std::vector<double>& currents,
                              const std::string& label) {
  const BlackModel black;
  ArrayMttfOptions options;
  options.sigma = rng.uniform(0.3, 0.7);
  options.probability_target = rng.uniform(0.1, 0.9);

  std::vector<double> medians;
  for (const double i : currents) medians.push_back(black.median_ttf(i));
  const double t50 = array_mttf(currents, black, options);
  expect_same_bits(reference_lifetime(medians, options), t50,
                   label + " array_mttf");
  for (const double t : {0.5 * t50, t50, 2.0 * t50}) {
    expect_same_bits(reference_probability(t, medians, options.sigma),
                     array_failure_probability(t, currents, black,
                                               options.sigma),
                     label + " array_failure_probability");
  }

  // Temperatures that change every 1-5 entries, so runs of equal currents
  // break on temperature too.
  std::vector<double> temperatures;
  double kelvin = 0.0;
  while (temperatures.size() < currents.size()) {
    kelvin = rng.uniform(330.0, 400.0);
    for (std::size_t n = 1 + rng.uniform_index(5);
         n > 0 && temperatures.size() < currents.size(); --n) {
      temperatures.push_back(kelvin);
    }
  }
  std::vector<double> hot_medians;
  for (std::size_t k = 0; k < currents.size(); ++k) {
    hot_medians.push_back(black.median_ttf(currents[k], temperatures[k]));
  }
  expect_same_bits(
      reference_lifetime(hot_medians, options),
      array_mttf_at_temperatures(currents, temperatures, black, options),
      label + " array_mttf_at_temperatures");

  // Bump swings of 1000 K per ampere of current.
  const ThermalCyclingModel fatigue;
  std::vector<double> swings, fatigue_medians;
  for (const double i : currents) {
    swings.push_back(1000.0 * std::abs(i));
    fatigue_medians.push_back(fatigue.time_to_failure(swings.back()));
  }
  expect_same_bits(reference_lifetime(fatigue_medians, options),
                   cycling_array_lifetime(swings, fatigue, options),
                   label + " cycling_array_lifetime");
}

TEST(ArrayMttfBitIdentity, RandomRunArrays) {
  Rng rng(20261017);
  for (int a = 0; a < 200; ++a) {
    // Log-uniform sizes in [1, 3000]: arrays of a few runs are as common as
    // long ones, and the per-conductor reference stays fast.
    const auto size = std::min<std::size_t>(
        3000, static_cast<std::size_t>(
                  std::exp(rng.uniform(0.0, std::log(3001.0)))));
    const auto currents = random_run_array(rng, size);
    expect_matches_reference(rng, currents, "array " + std::to_string(a));
  }
}

TEST(ArrayMttfBitIdentity, DenseTsvArray) {
  Rng rng(744800);
  const auto currents = dense_tsv_array(rng, 100000);
  expect_matches_reference(rng, currents, "dense TSV array");
}

// Property: array MTTF always lies between the hottest conductor's early
// tail and its median.
class ArraySizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArraySizes, BoundedByHottestConductor) {
  BlackModel black;
  Rng rng(GetParam());
  std::vector<double> currents(GetParam());
  double hottest = 0.0;
  for (auto& c : currents) {
    c = rng.uniform(1e-3, 40e-3);
    hottest = std::max(hottest, c);
  }
  const double t = array_mttf(currents, black);
  EXPECT_LE(t, black.median_ttf(hottest) * (1.0 + 1e-9));
  EXPECT_GT(t, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ArraySizes,
                         ::testing::Values(1, 4, 32, 256, 2048));

}  // namespace
}  // namespace vstack::em
