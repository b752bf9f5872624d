#include "core/sweeps.h"

#include "common/error.h"
#include "common/rng.h"
#include "em/array_mttf.h"
#include "telemetry/telemetry.h"

namespace vstack::core {

namespace {

std::vector<double> full_activity(std::size_t layers) {
  return std::vector<double>(layers, 1.0);
}

/// EM-free MTTF of one fully active scenario's TSV array: the only lifetime
/// Fig. 5a plots.
double tsv_mttf(const StudyContext& ctx, const pdn::StackupConfig& config) {
  return em::array_mttf(
      solve_scenario(ctx, config, full_activity(config.layer_count))
          .tsv_currents,
      ctx.black, ctx.mttf_options);
}

/// Same for the C4 pad array: the only lifetime Fig. 5b plots.
double c4_mttf(const StudyContext& ctx, const pdn::StackupConfig& config) {
  return em::array_mttf(
      solve_scenario(ctx, config, full_activity(config.layer_count))
          .c4_pad_currents,
      ctx.black, ctx.mttf_options);
}

/// The 2-layer V-S design both Fig. 5 plots normalize to.
pdn::StackupConfig vs_baseline(const StudyContext& ctx) {
  return make_stacked(ctx, 2, ctx.base.tsv, ctx.base.converters_per_core);
}

}  // namespace

SweepRunner::SweepRunner(const StudyContext& ctx, SweepOptions options)
    : ctx_(ctx), options_(std::move(options)) {
  options_.execution.validate();
  VS_REQUIRE(!options_.layer_counts.empty(),
             "SweepOptions.layer_counts must not be empty");
  VS_REQUIRE(!options_.converter_counts.empty(),
             "SweepOptions.converter_counts must not be empty");
}

std::vector<Fig5aRow> SweepRunner::fig5a() const {
  VS_SPAN("core.sweep.fig5a");
  const StudyContext& ctx = ctx_;
  const ExecutionPolicy& execution = options_.execution;
  const std::vector<std::size_t>& layer_counts = options_.layer_counts;
  if (execution.deadline.expired()) return {};  // before the baseline solve
  const double baseline = tsv_mttf(ctx, vs_baseline(ctx));
  VS_REQUIRE(baseline > 0.0, "baseline TSV MTTF must be positive");

  // One row per layer count, each evaluating four independent scenarios on
  // its own models: rows fan out on the pool and land in sweep order.
  std::vector<Fig5aRow> rows(layer_counts.size());
  const TaskPool pool(execution);
  const std::size_t committed = pool.run_ordered(
      layer_counts.size(),
      [&](std::size_t r) {
        const std::size_t layers = layer_counts[r];
        const auto regular = [&](const pdn::TsvConfig& tsv) {
          return tsv_mttf(ctx, make_regular(ctx, layers, tsv,
                                            ctx.base.power_c4_fraction)) /
                 baseline;
        };
        Fig5aRow row;
        row.layers = layers;
        row.reg_dense = regular(pdn::TsvConfig::dense());
        row.reg_sparse = regular(pdn::TsvConfig::sparse());
        row.reg_few = regular(pdn::TsvConfig::few());
        row.vs_few =
            tsv_mttf(ctx, make_stacked(ctx, layers, pdn::TsvConfig::few(),
                                       ctx.base.converters_per_core)) /
            baseline;
        rows[r] = row;
      },
      [](std::size_t) {});
  rows.resize(committed);  // a fired deadline keeps the committed prefix
  return rows;
}

std::vector<Fig5bRow> SweepRunner::fig5b() const {
  VS_SPAN("core.sweep.fig5b");
  const StudyContext& ctx = ctx_;
  const ExecutionPolicy& execution = options_.execution;
  const std::vector<std::size_t>& layer_counts = options_.layer_counts;
  if (execution.deadline.expired()) return {};  // before the baseline solve
  const double baseline = c4_mttf(ctx, vs_baseline(ctx));
  VS_REQUIRE(baseline > 0.0, "baseline C4 MTTF must be positive");

  std::vector<Fig5bRow> rows(layer_counts.size());
  const TaskPool pool(execution);
  const std::size_t committed = pool.run_ordered(
      layer_counts.size(),
      [&](std::size_t r) {
        const std::size_t layers = layer_counts[r];
        const auto regular = [&](double fraction) {
          return c4_mttf(ctx, make_regular(ctx, layers, ctx.base.tsv,
                                           fraction)) /
                 baseline;
        };
        Fig5bRow row;
        row.layers = layers;
        row.reg_25 = regular(0.25);
        row.reg_50 = regular(0.50);
        row.reg_75 = regular(0.75);
        row.reg_100 = regular(1.00);
        row.vs = c4_mttf(ctx, make_stacked(ctx, layers, ctx.base.tsv,
                                           ctx.base.converters_per_core)) /
                 baseline;
        rows[r] = row;
      },
      [](std::size_t) {});
  rows.resize(committed);  // a fired deadline keeps the committed prefix
  return rows;
}

Fig6Result SweepRunner::fig6(const std::vector<double>& imbalances) const {
  VS_SPAN("core.sweep.fig6");
  const StudyContext& ctx = ctx_;
  const std::size_t layers = options_.layers;
  const std::vector<std::size_t>& converter_counts = options_.converter_counts;
  Fig6Result result;
  result.converter_counts = converter_counts;

  // Tasks [0, 3) are the regular-PDN references.  Their worst case is all
  // layers fully active, so the imbalance assumption does not affect these
  // lines (paper Fig. 6 caption).
  constexpr std::size_t kReferences = 3;
  const pdn::TsvConfig reference_tsvs[kReferences] = {
      pdn::TsvConfig::dense(), pdn::TsvConfig::sparse(),
      pdn::TsvConfig::few()};
  double* const reference_noise[kReferences] = {
      &result.reg_dense, &result.reg_sparse, &result.reg_few};

  // Every other task is one converter count's column: one PdnModel, built
  // and bound once, solves each imbalance from a cold start, which gives
  // the bits a fresh model per point would.  Only the plotted cells are
  // kept, never a column of PdnSolutions.
  std::vector<std::vector<std::optional<double>>> columns(
      converter_counts.size());
  const TaskPool pool(options_.execution);
  const std::size_t tasks = kReferences + converter_counts.size();
  const std::size_t committed = pool.run_ordered(
      tasks,
      [&](std::size_t t) {
        if (t < kReferences) {
          *reference_noise[t] =
              solve_scenario(ctx,
                             make_regular(ctx, layers, reference_tsvs[t],
                                          ctx.base.power_c4_fraction),
                             full_activity(layers))
                  .max_node_deviation_fraction;
          return;
        }
        const pdn::PdnModel model(
            make_stacked(ctx, layers, ctx.base.tsv,
                         converter_counts[t - kReferences]),
            ctx.layer_floorplan);
        auto& column = columns[t - kReferences];
        column.reserve(imbalances.size());
        for (const double imbalance : imbalances) {
          const auto sol = model.solve_cold(model.network().build_loads(
              ctx.core_model,
              power::interleaved_layer_activities(layers, imbalance)));
          if (sol.converter_limit_ok) {
            column.emplace_back(sol.max_node_deviation_fraction);
          } else {
            column.emplace_back(std::nullopt);  // paper skips these
          }
        }
      },
      [](std::size_t) {});
  // A row needs every column: a fired deadline returns no rows at all.
  if (committed < tasks) return result;

  result.rows.resize(imbalances.size());
  for (std::size_t r = 0; r < imbalances.size(); ++r) {
    result.rows[r].imbalance = imbalances[r];
    for (const auto& column : columns) {
      result.rows[r].vs_noise.push_back(column[r]);
    }
  }
  return result;
}

std::vector<power::ApplicationPowerSummary> SweepRunner::fig7() const {
  VS_SPAN("core.sweep.fig7");
  // One shared Rng drives the whole campaign: inherently serial.
  Rng rng(options_.fig7_seed);
  return power::run_sampling_campaign(ctx_.core_model, options_.fig7_samples,
                                      rng);
}

Fig8Result SweepRunner::fig8(const std::vector<double>& imbalances) const {
  VS_SPAN("core.sweep.fig8");
  const StudyContext& ctx = ctx_;
  const std::size_t layers = options_.layers;
  const std::vector<std::size_t>& converter_counts = options_.converter_counts;
  Fig8Result result;
  result.converter_counts = converter_counts;
  result.rows.resize(imbalances.size());
  const TaskPool pool(options_.execution);
  const std::size_t committed = pool.run_ordered(
      imbalances.size(),
      [&](std::size_t r) {
        const double imbalance = imbalances[r];
        Fig8Row row;
        row.imbalance = imbalance;
        for (const std::size_t conv : converter_counts) {
          const auto eff = stacked_efficiency(ctx, layers, conv, imbalance);
          if (eff.feasible) {
            row.vs_efficiency.emplace_back(eff.efficiency);
          } else {
            row.vs_efficiency.emplace_back(std::nullopt);
          }
        }
        // Baseline sized to keep every converter within its limit.
        row.regular_sc =
            regular_sc_efficiency(ctx, layers, 8, imbalance).efficiency;
        result.rows[r] = std::move(row);
      },
      [](std::size_t) {});
  result.rows.resize(committed);  // a fired deadline keeps the prefix
  return result;
}

}  // namespace vstack::core
