#include "em/array_mttf.h"

#include <cmath>

#include "common/error.h"
#include "em/lognormal_array.h"

namespace vstack::em {

void ArrayMttfOptions::validate() const {
  VS_REQUIRE(probability_target > 0.0 && probability_target < 1.0,
             "probability target must be in (0, 1)");
  VS_REQUIRE(sigma > 0.0 && std::isfinite(sigma),
             "sigma must be positive and finite");
  VS_REQUIRE(relative_tolerance > 0.0 && std::isfinite(relative_tolerance),
             "relative tolerance must be positive and finite");
}

double array_failure_probability(double time,
                                 const std::vector<double>& currents,
                                 const BlackModel& black, double sigma) {
  VS_REQUIRE(!currents.empty(), "array must contain at least one conductor");
  detail::LognormalArray array;
  for (const double i : currents) array.push(black.median_ttf(i));
  return array.failure_probability(time, sigma);
}

double array_mttf(const std::vector<double>& currents, const BlackModel& black,
                  const ArrayMttfOptions& options) {
  VS_REQUIRE(!currents.empty(), "array must contain at least one conductor");
  detail::LognormalArray array;
  for (const double i : currents) array.push(black.median_ttf(i));
  return array.lifetime(options);
}

double array_mttf_at_temperatures(const std::vector<double>& currents,
                                  const std::vector<double>& temperatures,
                                  const BlackModel& black,
                                  const ArrayMttfOptions& options) {
  VS_REQUIRE(!currents.empty(), "array must contain at least one conductor");
  VS_REQUIRE(currents.size() == temperatures.size(),
             "temperature vector must match current vector");
  detail::LognormalArray array;
  for (std::size_t k = 0; k < currents.size(); ++k) {
    array.push(black.median_ttf(currents[k], temperatures[k]));
  }
  return array.lifetime(options);
}

}  // namespace vstack::em
