// Expected EM-damage-free lifetime of a conductor ARRAY (paper Sec. 3.3).
//
// Every element of a C4-pad or TSV array is subject to wearout; the array's
// failure CDF is P(t) = 1 - prod_i (1 - F_i(t)), and the paper's lifetime
// metric is the t at which P(t) = 0.5 (expected time to the FIRST failure).
#pragma once

#include <vector>

#include "em/black.h"

namespace vstack::em {

struct ArrayMttfOptions {
  double sigma = 0.5;              // lognormal shape parameter
  double probability_target = 0.5; // paper uses the P(t) = 0.5 crossing
  double relative_tolerance = 1e-9;  // bisection stop on the log-time bracket

  /// 0 < probability_target < 1; sigma and relative_tolerance positive and
  /// finite.  Every array lifetime checks its options through this.
  void validate() const;
};

/// Failure probability of the whole array at time t, given each conductor's
/// current and the Black model.  Computed in log space for robustness with
/// thousands of conductors, once per run of consecutive equal currents.
double array_failure_probability(double time,
                                 const std::vector<double>& currents,
                                 const BlackModel& black, double sigma);

/// Expected EM-damage-free lifetime: solves P(t) = probability_target by
/// bisection in log-time.  Returns +infinity if no conductor is stressed.
double array_mttf(const std::vector<double>& currents, const BlackModel& black,
                  const ArrayMttfOptions& options = {});

/// Thermal-aware variant: per-conductor temperatures [K] override the Black
/// model's default (thermal-EM coupling).  `temperatures` must match
/// `currents` in size.
double array_mttf_at_temperatures(const std::vector<double>& currents,
                                  const std::vector<double>& temperatures,
                                  const BlackModel& black,
                                  const ArrayMttfOptions& options = {});

}  // namespace vstack::em
