// The cross-layer exploration API -- the paper's primary contribution.
//
// A StudyContext bundles the processor model (floorplan + power), the EM
// model, and the converter design, and evaluates complete design scenarios:
// EM-damage-free lifetime of the C4/TSV arrays, supply voltage noise, and
// system power efficiency, for both regular and voltage-stacked PDNs.
#pragma once

#include <cstddef>
#include <vector>

#include "em/array_mttf.h"
#include "floorplan/floorplan.h"
#include "pdn/solver.h"
#include "power/core_power_model.h"
#include "sc/area.h"
#include "sc/ladder.h"
#include "thermal/thermal_grid.h"

namespace vstack::core {

struct StudyContext {
  floorplan::Floorplan layer_floorplan;
  power::CorePowerModel core_model;
  em::BlackModel black;
  em::ArrayMttfOptions mttf_options;
  pdn::StackupConfig base;  // shared parameters; topology etc. overridden
  sc::CapacitorTechnology capacitor_technology;

  /// The paper's study configuration: 16-core A9 layer, Few-TSV default,
  /// 32 Vdd pads/core for V-S, push-pull converter, high-density caps.
  ///
  /// EM model: Black exponent 1.1 (typical Cu interconnect) with lognormal
  /// sigma 0.5 and the TSV current-crowding model; together these reproduce
  /// the paper's EM relationships (the ~84% regular-TSV degradation from 2
  /// to 8 layers, the >3x TSV and >=5x C4 gaps at 8 layers, and the
  /// marginal benefit of denser TSV allocations); see EXPERIMENTS.md.
  static StudyContext paper_defaults();

  /// Area overhead of a V-S design: converters (converters_per_core of them
  /// in every core on every layer) plus the TSV keep-out zones, as a
  /// fraction of core area.
  double vs_area_overhead(std::size_t converters_per_core,
                          const pdn::TsvConfig& tsv) const;

  /// Area overhead of a regular design: TSV keep-out zones only.
  double regular_area_overhead(const pdn::TsvConfig& tsv) const;
};

/// Outcome of one PDN scenario evaluation.
struct ScenarioResult {
  pdn::PdnSolution solution;
  double tsv_mttf = 0.0;  // expected EM-damage-free lifetime of the TSV array
  double c4_mttf = 0.0;   // same for the C4 pad array
};

/// Build and solve one healthy scenario at the given per-layer activities;
/// a failed solve throws (a modeling bug on an unfaulted network).
pdn::PdnSolution solve_scenario(const StudyContext& ctx,
                                const pdn::StackupConfig& config,
                                const std::vector<double>& layer_activities);

/// solve_scenario plus both MTTF metrics from the solved currents.
ScenarioResult evaluate_scenario(const StudyContext& ctx,
                                 const pdn::StackupConfig& config,
                                 const std::vector<double>& layer_activities);

/// The arguments of make_regular or make_stacked: a study system is
/// ctx.base with exactly these fields set (make_system), so equal specs
/// build equal configs.  The argument the other builder takes stays zero.
struct SystemSpec {
  pdn::PdnTopology topology = pdn::PdnTopology::Regular3d;
  std::size_t layers = 0;
  pdn::TsvConfig tsv;
  double power_c4_fraction = 0.0;       // regular systems
  std::size_t converters_per_core = 0;  // voltage-stacked systems

  static SystemSpec regular(std::size_t layers, const pdn::TsvConfig& tsv,
                            double power_c4_fraction);
  static SystemSpec stacked(std::size_t layers, const pdn::TsvConfig& tsv,
                            std::size_t converters_per_core);
  bool operator==(const SystemSpec&) const = default;
};

/// ctx.base with the spec's fields set.
pdn::StackupConfig make_system(const StudyContext& ctx,
                               const SystemSpec& spec);

/// Convenience builders for the two topologies, starting from ctx.base.
pdn::StackupConfig make_regular(const StudyContext& ctx, std::size_t layers,
                                const pdn::TsvConfig& tsv,
                                double power_c4_fraction);
pdn::StackupConfig make_stacked(const StudyContext& ctx, std::size_t layers,
                                const pdn::TsvConfig& tsv,
                                std::size_t converters_per_core);

/// Thermal-EM coupled evaluation (extension beyond the paper): solve the
/// stack's temperature field for the same workload, then recompute the EM
/// lifetimes with per-conductor temperatures (TSVs at the mean temperature
/// of their interface, C4 pads at the bottom layer's).
struct ThermalAwareResult {
  ScenarioResult isothermal;  // reference evaluation at the Black default T
  thermal::ThermalResult thermal;
  std::vector<double> layer_mean_celsius;
  double tsv_mttf_thermal = 0.0;
  double c4_mttf_thermal = 0.0;
};

ThermalAwareResult evaluate_scenario_with_thermal(
    const StudyContext& ctx, const pdn::StackupConfig& config,
    const std::vector<double>& layer_activities,
    const thermal::ThermalConfig& thermal_config = {});

/// System power efficiency of a voltage-stacked design under the
/// interleaved high-low pattern (Fig. 8 machinery).
struct EfficiencyResult {
  double efficiency = 0.0;
  double max_converter_current = 0.0;
  bool feasible = true;  // within the per-converter current limit
};

EfficiencyResult stacked_efficiency(const StudyContext& ctx,
                                    std::size_t layers,
                                    std::size_t converters_per_core,
                                    double imbalance);

/// Baseline: regular PDN where SC converters provide ALL the power (every
/// layer's full current passes through a 2:1 conversion).
EfficiencyResult regular_sc_efficiency(const StudyContext& ctx,
                                       std::size_t layers,
                                       std::size_t converters_per_core,
                                       double imbalance);

}  // namespace vstack::core
