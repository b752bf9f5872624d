// Private to src/em: the one first-failure evaluation and bisection behind
// array_mttf, array_mttf_at_temperatures, array_failure_probability and
// cycling_array_lifetime.
//
// An array is reduced, once per call, to runs of consecutive equal median
// TTFs in array order, with log t50 taken once per run.  P(t) then costs one
// log t plus one erfc and one log1p per run, and a run's log1p(-F) term is
// added `count` times, one addition at a time: the sum sees the same
// additions in the same order as a loop over the conductors, so every result
// is bit-identical to that loop.  Unstressed conductors (t50 = +inf) are
// dropped: their term is log1p(-0) = -0, which leaves any sum unchanged.
//
// A LognormalArray lives for one call; nothing is cached across calls.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.h"
#include "em/array_mttf.h"

namespace vstack::em::detail {

/// Lognormal failure CDF from logs already taken:
/// F = Phi((log t - log t50) / sigma).
inline double lognormal_cdf_of_logs(double log_time, double log_median,
                                    double sigma) {
  const double z = (log_time - log_median) / sigma;
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

class LognormalArray {
 public:
  /// Appends the next conductor, in array order, by its median TTF;
  /// +infinity is an unstressed conductor.
  void push(double median_ttf) {
    if (median_ttf == std::numeric_limits<double>::infinity()) return;
    if (!runs_.empty() && median_ttf == last_median_) {
      ++runs_.back().count;
      return;
    }
    VS_REQUIRE(median_ttf > 0.0, "median TTF must be positive");
    runs_.push_back({std::log(median_ttf), 1});
    last_median_ = median_ttf;
    min_median_ = std::min(min_median_, median_ttf);
  }

  /// P(t) = 1 - prod_i (1 - F_i(t)) over the pushed conductors.
  double failure_probability(double time, double sigma) const {
    VS_REQUIRE(sigma > 0.0, "lognormal sigma must be positive");
    VS_REQUIRE(time >= 0.0, "time must be non-negative");
    const double log_time = std::log(time);
    double log_survive = 0.0;
    for (const Run& run : runs_) {
      const double f = lognormal_cdf_of_logs(log_time, run.log_median, sigma);
      if (f >= 1.0) return 1.0;
      // One addition per conductor, never count * term: the sum must round
      // exactly as the per-conductor loop's does.
      const double term = std::log1p(-f);
      for (std::size_t k = 0; k < run.count; ++k) log_survive += term;
    }
    return 1.0 - std::exp(log_survive);
  }

  /// Solves P(t) = options.probability_target by bisection in log-time.
  /// Returns +infinity if no conductor is stressed.
  double lifetime(const ArrayMttfOptions& options) const {
    options.validate();
    if (runs_.empty()) {
      return std::numeric_limits<double>::infinity();  // nothing is stressed
    }
    const auto p_at = [&](double log_t) {
      return failure_probability(std::exp(log_t), options.sigma);
    };

    // Bracket in log-time around the strongest conductor's median: the array
    // fails no later than ~min t50 and no earlier than many sigma before it.
    double lo = std::log(min_median_) - 20.0 * options.sigma;
    double hi = std::log(min_median_) + 20.0 * options.sigma;
    VS_REQUIRE(p_at(lo) < options.probability_target,
               "bracket lower bound already failed");
    for (int k = 0; k < 60 && p_at(hi) < options.probability_target; ++k) {
      hi += 5.0 * options.sigma;
    }
    VS_REQUIRE(p_at(hi) >= options.probability_target,
               "failed to bracket the target probability");

    while (hi - lo > options.relative_tolerance) {
      const double mid = 0.5 * (lo + hi);
      if (p_at(mid) < options.probability_target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return std::exp(0.5 * (lo + hi));
  }

 private:
  struct Run {
    double log_median;
    std::size_t count;
  };
  std::vector<Run> runs_;
  double last_median_ = 0.0;  // median TTF of runs_.back()
  double min_median_ = std::numeric_limits<double>::infinity();
};

}  // namespace vstack::em::detail
