#include "core/study.h"

#include <cmath>

#include "common/error.h"
#include "common/units.h"
#include "power/workload.h"

namespace vstack::core {

StudyContext StudyContext::paper_defaults() {
  StudyContext ctx{
      floorplan::paper_layer_floorplan(),
      power::CorePowerModel::cortex_a9_like(),
      em::BlackModel{},
      em::ArrayMttfOptions{},
      pdn::StackupConfig{},
      sc::ferroelectric_capacitor(),  // the "high-density capacitors" case
  };
  // Standard Cu-interconnect Black exponent; with the TSV current-crowding
  // model this reproduces the paper's EM trends (see EXPERIMENTS.md).
  ctx.black.current_exponent = 1.1;
  ctx.base.tsv = pdn::TsvConfig::few();
  ctx.base.vdd_pads_per_core = 32;
  return ctx;
}

double StudyContext::vs_area_overhead(std::size_t converters_per_core,
                                      const pdn::TsvConfig& tsv) const {
  const double conv_area =
      sc::converter_area(base.converter, capacitor_technology);
  const double core_area = core_model.area();
  return static_cast<double>(converters_per_core) * conv_area / core_area +
         tsv.area_overhead(base.params, core_area);
}

double StudyContext::regular_area_overhead(const pdn::TsvConfig& tsv) const {
  return tsv.area_overhead(base.params, core_model.area());
}

pdn::StackupConfig make_regular(const StudyContext& ctx, std::size_t layers,
                                const pdn::TsvConfig& tsv,
                                double power_c4_fraction) {
  pdn::StackupConfig cfg = ctx.base;
  cfg.topology = pdn::PdnTopology::Regular3d;
  cfg.layer_count = layers;
  cfg.tsv = tsv;
  cfg.power_c4_fraction = power_c4_fraction;
  return cfg;
}

pdn::StackupConfig make_stacked(const StudyContext& ctx, std::size_t layers,
                                const pdn::TsvConfig& tsv,
                                std::size_t converters_per_core) {
  pdn::StackupConfig cfg = ctx.base;
  cfg.topology = pdn::PdnTopology::VoltageStacked;
  cfg.layer_count = layers;
  cfg.tsv = tsv;
  cfg.converters_per_core = converters_per_core;
  return cfg;
}

pdn::PdnSolution solve_scenario(const StudyContext& ctx,
                                const pdn::StackupConfig& config,
                                const std::vector<double>& layer_activities) {
  const pdn::PdnModel model(config, ctx.layer_floorplan);
  pdn::PdnSolution solution =
      model.solve_activities(ctx.core_model, layer_activities);
  // The study pipeline only evaluates healthy (fault-free) networks, where
  // a failed solve indicates a modeling bug, not expected degradation --
  // fault campaigns go through core/contingency.h, which inspects the
  // report instead.
  VS_REQUIRE(solution.solve_ok, "PDN solve failed: " + solution.diagnostic);
  return solution;
}

ScenarioResult evaluate_scenario(const StudyContext& ctx,
                                 const pdn::StackupConfig& config,
                                 const std::vector<double>& layer_activities) {
  ScenarioResult result;
  result.solution = solve_scenario(ctx, config, layer_activities);
  result.tsv_mttf = em::array_mttf(result.solution.tsv_currents, ctx.black,
                                   ctx.mttf_options);
  result.c4_mttf = em::array_mttf(result.solution.c4_pad_currents, ctx.black,
                                  ctx.mttf_options);
  return result;
}

ThermalAwareResult evaluate_scenario_with_thermal(
    const StudyContext& ctx, const pdn::StackupConfig& config,
    const std::vector<double>& layer_activities,
    const thermal::ThermalConfig& thermal_config) {
  ThermalAwareResult out;
  out.isothermal = evaluate_scenario(ctx, config, layer_activities);

  // Temperature field for the same workload.
  std::vector<floorplan::GridMap> power_maps;
  power_maps.reserve(config.layer_count);
  for (std::size_t l = 0; l < config.layer_count; ++l) {
    power_maps.push_back(floorplan::layer_power_map(
        ctx.layer_floorplan, ctx.core_model,
        std::vector<double>(ctx.layer_floorplan.core_count(),
                            layer_activities[l]),
        thermal_config.nx, thermal_config.ny));
  }
  out.thermal = thermal::solve_stack_temperature(
      thermal_config, ctx.layer_floorplan.width, ctx.layer_floorplan.height,
      power_maps);

  out.layer_mean_celsius.resize(config.layer_count);
  for (std::size_t l = 0; l < config.layer_count; ++l) {
    const auto& map = out.thermal.layer_temperature[l];
    double sum = 0.0;
    for (const double t : map.values) sum += t;
    out.layer_mean_celsius[l] = sum / static_cast<double>(map.values.size());
  }

  // Per-conductor temperatures: TSVs at their interface's mean, pads at the
  // bottom layer's.
  const auto& sol = out.isothermal.solution;
  const auto kelvin = [](double celsius) {
    return celsius + constants::kCelsiusOffset;
  };
  std::vector<double> tsv_temps(sol.tsv_currents.size());
  for (std::size_t k = 0; k < sol.tsv_currents.size(); ++k) {
    const unsigned i = sol.tsv_interface_of[k];
    const double t_low = out.layer_mean_celsius[i];
    const double t_high =
        out.layer_mean_celsius[std::min<std::size_t>(i + 1,
                                                     config.layer_count - 1)];
    tsv_temps[k] = kelvin(0.5 * (t_low + t_high));
  }
  out.tsv_mttf_thermal = em::array_mttf_at_temperatures(
      sol.tsv_currents, tsv_temps, ctx.black, ctx.mttf_options);

  const std::vector<double> pad_temps(sol.c4_pad_currents.size(),
                                      kelvin(out.layer_mean_celsius.front()));
  out.c4_mttf_thermal = em::array_mttf_at_temperatures(
      sol.c4_pad_currents, pad_temps, ctx.black, ctx.mttf_options);
  return out;
}

EfficiencyResult stacked_efficiency(const StudyContext& ctx,
                                    std::size_t layers,
                                    std::size_t converters_per_core,
                                    double imbalance) {
  const auto activities =
      power::interleaved_layer_activities(layers, imbalance);
  std::vector<double> layer_currents(layers);
  const double cores = static_cast<double>(ctx.layer_floorplan.core_count());
  for (std::size_t l = 0; l < layers; ++l) {
    layer_currents[l] = cores * ctx.core_model.total_power(activities[l]) /
                        ctx.base.vdd;
  }

  sc::LadderStackDesign design;
  design.layer_count = layers;
  design.converters_per_level =
      converters_per_core * ctx.layer_floorplan.core_count();
  design.converter = ctx.base.converter;
  const auto breakdown =
      sc::evaluate_ladder_power(design, layer_currents, ctx.base.vdd);

  return EfficiencyResult{breakdown.efficiency,
                          breakdown.max_converter_current,
                          breakdown.within_current_limits};
}

EfficiencyResult regular_sc_efficiency(const StudyContext& ctx,
                                       std::size_t layers,
                                       std::size_t converters_per_core,
                                       double imbalance) {
  const auto activities =
      power::interleaved_layer_activities(layers, imbalance);
  const sc::ScCompactModel model(ctx.base.converter);
  const double cores = static_cast<double>(ctx.layer_floorplan.core_count());
  const double n_conv_per_layer =
      static_cast<double>(converters_per_core) * cores;

  EfficiencyResult out;
  double load_power = 0.0, losses = 0.0;
  for (std::size_t l = 0; l < layers; ++l) {
    const double layer_power =
        cores * ctx.core_model.total_power(activities[l]);
    const double layer_current = layer_power / ctx.base.vdd;
    const double per_converter = layer_current / n_conv_per_layer;
    out.max_converter_current =
        std::max(out.max_converter_current, per_converter);
    if (per_converter > ctx.base.converter.max_load_current) {
      out.feasible = false;
    }
    // Each converter halves a 2 Vdd rail down to Vdd.
    const auto op = model.evaluate(2.0 * ctx.base.vdd, 0.0, per_converter);
    load_power += layer_power;
    losses += n_conv_per_layer * (op.conduction_loss + op.parasitic_loss);
  }
  out.efficiency = load_power / (load_power + losses);
  return out;
}

}  // namespace vstack::core
