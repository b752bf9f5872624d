#include "em/thermal_cycling.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "em/lognormal_array.h"

namespace vstack::em {

void ThermalCyclingModel::validate() const {
  VS_REQUIRE(prefactor > 0.0, "Coffin-Manson prefactor must be positive");
  VS_REQUIRE(exponent > 0.0, "Coffin-Manson exponent must be positive");
  VS_REQUIRE(cycle_period > 0.0, "cycle period must be positive");
}

double ThermalCyclingModel::cycles_to_failure(double delta_t) const {
  validate();
  VS_REQUIRE(delta_t >= 0.0, "temperature swing must be non-negative");
  if (delta_t == 0.0) return std::numeric_limits<double>::infinity();
  return prefactor * std::pow(delta_t, -exponent);
}

double ThermalCyclingModel::time_to_failure(double delta_t) const {
  return cycles_to_failure(delta_t) * cycle_period;
}

double cycling_array_lifetime(const std::vector<double>& delta_ts,
                              const ThermalCyclingModel& model,
                              const ArrayMttfOptions& options) {
  VS_REQUIRE(!delta_ts.empty(), "array must contain at least one bump");
  // Same first-failure statistics as the EM arrays: each bump's fatigue
  // life is a lognormal median.
  detail::LognormalArray array;
  for (const double dt : delta_ts) array.push(model.time_to_failure(dt));
  return array.lifetime(options);
}

double competing_risk_lifetime(double median_a, double sigma_a,
                               double median_b, double sigma_b,
                               double probability_target) {
  VS_REQUIRE(probability_target > 0.0 && probability_target < 1.0,
             "probability target must be in (0, 1)");
  if (std::isinf(median_a) && std::isinf(median_b)) {
    return std::numeric_limits<double>::infinity();
  }
  const double anchor = std::min(median_a, median_b);
  const double sigma = std::max(sigma_a, sigma_b);

  const auto p_at = [&](double log_t) {
    const double t = std::exp(log_t);
    const double fa = lognormal_failure_cdf(t, median_a, sigma_a);
    const double fb = lognormal_failure_cdf(t, median_b, sigma_b);
    return 1.0 - (1.0 - fa) * (1.0 - fb);
  };

  double lo = std::log(anchor) - 20.0 * sigma;
  double hi = std::log(anchor) + 20.0 * sigma;
  VS_REQUIRE(p_at(lo) < probability_target,
             "bracket lower bound already failed");
  for (int k = 0; k < 60 && p_at(hi) < probability_target; ++k) {
    hi += 5.0 * sigma;
  }
  while (hi - lo > 1e-9) {
    const double mid = 0.5 * (lo + hi);
    (p_at(mid) < probability_target ? lo : hi) = mid;
  }
  return std::exp(0.5 * (lo + hi));
}

}  // namespace vstack::em
