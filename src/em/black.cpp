#include "em/black.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/units.h"
#include "em/lognormal_array.h"

namespace vstack::em {

void BlackModel::validate() const {
  VS_REQUIRE(prefactor > 0.0, "Black prefactor must be positive");
  VS_REQUIRE(current_exponent > 0.0, "current exponent must be positive");
  VS_REQUIRE(activation_energy > 0.0, "activation energy must be positive");
  VS_REQUIRE(temperature > 0.0, "temperature must be positive (kelvin)");
}

double BlackModel::median_ttf(double current) const {
  return median_ttf(current, temperature);
}

double BlackModel::median_ttf(double current,
                              double temperature_kelvin) const {
  validate();
  VS_REQUIRE(temperature_kelvin > 0.0,
             "conductor temperature must be positive (kelvin)");
  VS_REQUIRE(std::isfinite(current), "conductor current must be finite");
  const double magnitude = std::abs(current);
  if (magnitude == 0.0) return std::numeric_limits<double>::infinity();
  return prefactor * std::pow(magnitude, -current_exponent) *
         std::exp(activation_energy /
                  (constants::kBoltzmannEv * temperature_kelvin));
}

double lognormal_failure_cdf(double time, double median_ttf, double sigma) {
  VS_REQUIRE(sigma > 0.0, "lognormal sigma must be positive");
  VS_REQUIRE(time >= 0.0, "time must be non-negative");
  if (time == 0.0) return 0.0;
  if (std::isinf(median_ttf)) return 0.0;  // unstressed conductor
  VS_REQUIRE(median_ttf > 0.0, "median TTF must be positive");
  return detail::lognormal_cdf_of_logs(std::log(time), std::log(median_ttf),
                                       sigma);
}

}  // namespace vstack::em
