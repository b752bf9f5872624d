#include "core/design_space.h"

#include "common/error.h"
#include "power/workload.h"

namespace vstack::core {

namespace {

DesignPoint evaluate_point(const StudyContext& ctx,
                           const DesignSpaceOptions& options,
                           const pdn::StackupConfig& cfg,
                           const std::string& label,
                           const ScenarioResult& baseline) {
  DesignPoint p;
  p.label = label;
  p.config = cfg;

  // EM at full activity (the paper's Fig. 5 condition).
  const auto em = evaluate_scenario(
      ctx, cfg, std::vector<double>(options.layers, 1.0));
  p.tsv_mttf = em.tsv_mttf / baseline.tsv_mttf;
  p.c4_mttf = em.c4_mttf / baseline.c4_mttf;

  // Noise at the reference imbalance.  Regular PDNs are imbalance
  // insensitive (worst case is all-active, already solved above).
  if (cfg.is_voltage_stacked()) {
    pdn::PdnModel model(cfg, ctx.layer_floorplan);
    const auto sol = model.solve_activities(
        ctx.core_model, power::interleaved_layer_activities(
                            options.layers, options.reference_imbalance));
    p.noise = sol.max_node_deviation_fraction;
    p.feasible = sol.converter_limit_ok;
    const auto eff =
        stacked_efficiency(ctx, options.layers, cfg.converters_per_core,
                           options.reference_imbalance);
    p.efficiency = eff.efficiency;
    p.feasible = p.feasible && eff.feasible;
    p.area_overhead =
        ctx.vs_area_overhead(cfg.converters_per_core, cfg.tsv);
  } else {
    p.noise = em.solution.max_node_deviation_fraction;
    // No regulation stage: only the grid's resistive loss.
    p.efficiency = em.solution.resistive_efficiency;
    p.area_overhead = ctx.regular_area_overhead(cfg.tsv);
  }
  return p;
}

}  // namespace

std::vector<DesignPoint> enumerate_designs(const StudyContext& ctx,
                                           const DesignSpaceOptions& options) {
  VS_REQUIRE(options.layers >= 2, "exploration needs at least two layers");

  const ScenarioResult baseline = evaluate_scenario(
      ctx, make_stacked(ctx, 2, ctx.base.tsv, ctx.base.converters_per_core),
      std::vector<double>(2, 1.0));

  // Enumerate the candidate grid first (cheap), then evaluate each point's
  // models on the worker pool; points keep their enumeration order.
  std::vector<std::pair<pdn::StackupConfig, std::string>> candidates;
  for (const auto& tsv : pdn::TsvConfig::paper_configs()) {
    for (const double fraction : options.regular_c4_fractions) {
      candidates.emplace_back(
          make_regular(ctx, options.layers, tsv, fraction),
          "Reg/" + tsv.name + "/" +
              std::to_string(static_cast<int>(fraction * 100)) + "%C4");
    }
    for (const std::size_t conv : options.stacked_converter_counts) {
      candidates.emplace_back(
          make_stacked(ctx, options.layers, tsv, conv),
          "V-S/" + tsv.name + "/" + std::to_string(conv) + "conv");
    }
  }

  std::vector<DesignPoint> points(candidates.size());
  const TaskPool pool(options.execution);
  const std::size_t committed = pool.run_ordered(
      candidates.size(),
      [&](std::size_t i) {
        points[i] = evaluate_point(ctx, options, candidates[i].first,
                                   candidates[i].second, baseline);
      },
      [](std::size_t) {});
  points.resize(committed);  // a fired deadline keeps the committed prefix
  return points;
}

bool dominates(const DesignPoint& a, const DesignPoint& b) {
  const bool geq = a.noise <= b.noise && a.area_overhead <= b.area_overhead &&
                   a.tsv_mttf >= b.tsv_mttf && a.c4_mttf >= b.c4_mttf &&
                   a.efficiency >= b.efficiency;
  const bool strict = a.noise < b.noise || a.area_overhead < b.area_overhead ||
                      a.tsv_mttf > b.tsv_mttf || a.c4_mttf > b.c4_mttf ||
                      a.efficiency > b.efficiency;
  return geq && strict;
}

std::vector<std::size_t> pareto_front(
    const std::vector<DesignPoint>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].feasible) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i != j && points[j].feasible && dominates(points[j], points[i])) {
        dominated = true;
      }
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

}  // namespace vstack::core
