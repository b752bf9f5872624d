// Electromigration wearout of a single conductor: Black's equation with a
// lognormal time-to-failure distribution (paper Sec. 3.3).
//
//   MTTF = A * J^{-n} * exp(Ea / (k T))
//
// Because every conductor of a given class (C4 pad, TSV) shares its
// geometry, current density J is proportional to current I and the geometry
// factor folds into the prefactor A.  The paper reports all lifetimes
// normalized to a reference design, so A is a free scale and defaults to 1.
#pragma once

namespace vstack::em {

struct BlackModel {
  double prefactor = 1.0;          // A (arbitrary lifetime units)
  double current_exponent = 2.0;   // n; 2 is Black's classic value
  double activation_energy = 0.9;  // Ea [eV] for Cu interconnect
  double temperature = 378.15;     // [K] (105 C stressed operating point)

  void validate() const;

  /// Median time to failure of a conductor carrying |current| amperes.
  /// Returns +infinity for zero current (no EM stress); a NaN or infinite
  /// current is an error.
  double median_ttf(double current) const;

  /// Same, at an explicit conductor temperature [K] (thermal-EM coupling);
  /// overrides the model's default temperature.
  double median_ttf(double current, double temperature_kelvin) const;
};

/// Lognormal failure CDF: F(t) = Phi((ln t - ln t50) / sigma).
/// `sigma` is the lognormal shape parameter (typ. 0.3-0.7 for EM).
double lognormal_failure_cdf(double time, double median_ttf, double sigma);

}  // namespace vstack::em
