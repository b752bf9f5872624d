#include "core/sweeps.h"

#include <array>
#include <condition_variable>
#include <mutex>

#include "common/error.h"
#include "common/rng.h"
#include "em/array_mttf.h"
#include "telemetry/telemetry.h"

namespace vstack::core {

namespace {

/// What a figure reads from a plan system besides the noise metric, which
/// every solve yields for free.
enum Reads : unsigned { kTsvLifetime = 1u, kC4Lifetime = 2u };

/// The 2-layer V-S design both Fig. 5 plots normalize to.
SystemSpec vs_baseline(const StudyContext& ctx) {
  return SystemSpec::stacked(2, ctx.base.tsv, ctx.base.converters_per_core);
}

/// Fig. 5a's systems at one layer count, in Fig5aRow order.
std::array<SystemSpec, 4> fig5a_systems(const StudyContext& ctx,
                                        std::size_t layers) {
  const double c4 = ctx.base.power_c4_fraction;
  return {SystemSpec::regular(layers, pdn::TsvConfig::dense(), c4),
          SystemSpec::regular(layers, pdn::TsvConfig::sparse(), c4),
          SystemSpec::regular(layers, pdn::TsvConfig::few(), c4),
          SystemSpec::stacked(layers, pdn::TsvConfig::few(),
                              ctx.base.converters_per_core)};
}

/// Fig. 5b's systems at one layer count, in Fig5bRow order.
std::array<SystemSpec, 5> fig5b_systems(const StudyContext& ctx,
                                        std::size_t layers) {
  return {SystemSpec::regular(layers, ctx.base.tsv, 0.25),
          SystemSpec::regular(layers, ctx.base.tsv, 0.50),
          SystemSpec::regular(layers, ctx.base.tsv, 0.75),
          SystemSpec::regular(layers, ctx.base.tsv, 1.00),
          SystemSpec::stacked(layers, ctx.base.tsv,
                              ctx.base.converters_per_core)};
}

/// Fig. 6's regular-PDN references: Dense, Sparse, Few.
std::array<SystemSpec, 3> fig6_references(const StudyContext& ctx,
                                          std::size_t layers) {
  const double c4 = ctx.base.power_c4_fraction;
  return {SystemSpec::regular(layers, pdn::TsvConfig::dense(), c4),
          SystemSpec::regular(layers, pdn::TsvConfig::sparse(), c4),
          SystemSpec::regular(layers, pdn::TsvConfig::few(), c4)};
}

}  // namespace

/// The distinct fully active systems Figs. 5a, 5b and 6 read, fixed when
/// the runner is built.  An entry keeps scalars only -- the noise metric
/// and the lifetimes computed so far -- never a solution's current arrays.
struct SweepRunner::Plan {
  struct Values {
    double tsv_mttf = 0.0;
    double c4_mttf = 0.0;
    double noise = 0.0;  // max node deviation / vdd
  };
  struct Entry {
    Entry(const SystemSpec& s, bool c4) : spec(s), c4_read(c4) {}
    SystemSpec spec;
    bool c4_read = false;  // some figure reads the C4 lifetime
    enum class State { Unsolved, Solving, Solved } state = State::Unsolved;
    unsigned computed = 0;  // the Reads bits `values` holds
    Values values;
  };

  void add(const SystemSpec& spec, bool c4_read) {
    for (Entry& e : entries) {
      if (e.spec == spec) {
        e.c4_read = e.c4_read || c4_read;
        return;
      }
    }
    entries.emplace_back(spec, c4_read);
  }

  /// The values of `spec`'s system with at least the lifetimes in `reads`,
  /// solving it when no earlier solve computed them.  A solve computes
  /// `reads` plus the C4 lifetime wherever some figure reads it.  It runs
  /// outside the lock; a concurrent request for the same system waits for
  /// it, so the work counts of a figure do not depend on the job count.
  Values values(const StudyContext& ctx, const SystemSpec& spec,
                unsigned reads) {
    Entry* entry = nullptr;
    for (Entry& e : entries) {
      if (e.spec == spec) entry = &e;
    }
    VS_REQUIRE(entry != nullptr, "sweep system missing from the plan");
    {
      std::unique_lock lock(mutex);
      solved.wait(lock, [&] { return entry->state != Entry::State::Solving; });
      if (entry->state == Entry::State::Solved &&
          (entry->computed & reads) == reads) {
        return entry->values;
      }
      entry->state = Entry::State::Solving;
    }
    const unsigned computed = reads | (entry->c4_read ? kC4Lifetime : 0u);
    Values v;
    try {
      const pdn::PdnSolution sol = solve_scenario(
          ctx, make_system(ctx, spec), std::vector<double>(spec.layers, 1.0));
      v.noise = sol.max_node_deviation_fraction;
      if ((computed & kTsvLifetime) != 0u) {
        v.tsv_mttf =
            em::array_mttf(sol.tsv_currents, ctx.black, ctx.mttf_options);
      }
      if ((computed & kC4Lifetime) != 0u) {
        v.c4_mttf =
            em::array_mttf(sol.c4_pad_currents, ctx.black, ctx.mttf_options);
      }
    } catch (...) {
      {
        const std::lock_guard lock(mutex);
        entry->state = Entry::State::Unsolved;
        entry->computed = 0;
      }
      solved.notify_all();
      throw;
    }
    {
      const std::lock_guard lock(mutex);
      entry->values = v;
      entry->computed = computed;
      entry->state = Entry::State::Solved;
    }
    solved.notify_all();
    return v;
  }

  std::vector<Entry> entries;  // fixed once the runner is built
  std::mutex mutex;            // guards each entry's state and values
  std::condition_variable solved;
};

SweepRunner::SweepRunner(const StudyContext& ctx, SweepOptions options)
    : ctx_(ctx), options_(std::move(options)), plan_(std::make_unique<Plan>()) {
  options_.execution.validate();
  VS_REQUIRE(!options_.layer_counts.empty(),
             "SweepOptions.layer_counts must not be empty");
  VS_REQUIRE(!options_.converter_counts.empty(),
             "SweepOptions.converter_counts must not be empty");
  plan_->entries.reserve(1 + 9 * options_.layer_counts.size() + 3);
  plan_->add(vs_baseline(ctx_), true);
  for (const std::size_t layers : options_.layer_counts) {
    for (const auto& spec : fig5a_systems(ctx_, layers)) {
      plan_->add(spec, false);
    }
    for (const auto& spec : fig5b_systems(ctx_, layers)) {
      plan_->add(spec, true);
    }
  }
  for (const auto& spec : fig6_references(ctx_, options_.layers)) {
    plan_->add(spec, false);
  }
}

SweepRunner::~SweepRunner() = default;

std::vector<Fig5aRow> SweepRunner::fig5a() const {
  VS_SPAN("core.sweep.fig5a");
  const ExecutionPolicy& execution = options_.execution;
  const std::vector<std::size_t>& layer_counts = options_.layer_counts;
  if (execution.deadline.expired()) return {};  // before the baseline solve
  const double baseline =
      plan_->values(ctx_, vs_baseline(ctx_), kTsvLifetime).tsv_mttf;
  VS_REQUIRE(baseline > 0.0, "baseline TSV MTTF must be positive");

  // One row per layer count; rows fan out on the pool and land in sweep
  // order.
  std::vector<Fig5aRow> rows(layer_counts.size());
  const TaskPool pool(execution);
  const std::size_t committed = pool.run_ordered(
      layer_counts.size(),
      [&](std::size_t r) {
        const auto systems = fig5a_systems(ctx_, layer_counts[r]);
        const auto normalized = [&](std::size_t k) {
          return plan_->values(ctx_, systems[k], kTsvLifetime).tsv_mttf /
                 baseline;
        };
        Fig5aRow row;
        row.layers = layer_counts[r];
        row.reg_dense = normalized(0);
        row.reg_sparse = normalized(1);
        row.reg_few = normalized(2);
        row.vs_few = normalized(3);
        rows[r] = row;
      },
      [](std::size_t) {});
  rows.resize(committed);  // a fired deadline keeps the committed prefix
  return rows;
}

std::vector<Fig5bRow> SweepRunner::fig5b() const {
  VS_SPAN("core.sweep.fig5b");
  const ExecutionPolicy& execution = options_.execution;
  const std::vector<std::size_t>& layer_counts = options_.layer_counts;
  if (execution.deadline.expired()) return {};  // before the baseline solve
  const double baseline =
      plan_->values(ctx_, vs_baseline(ctx_), kC4Lifetime).c4_mttf;
  VS_REQUIRE(baseline > 0.0, "baseline C4 MTTF must be positive");

  std::vector<Fig5bRow> rows(layer_counts.size());
  const TaskPool pool(execution);
  const std::size_t committed = pool.run_ordered(
      layer_counts.size(),
      [&](std::size_t r) {
        const auto systems = fig5b_systems(ctx_, layer_counts[r]);
        const auto normalized = [&](std::size_t k) {
          return plan_->values(ctx_, systems[k], kC4Lifetime).c4_mttf /
                 baseline;
        };
        Fig5bRow row;
        row.layers = layer_counts[r];
        row.reg_25 = normalized(0);
        row.reg_50 = normalized(1);
        row.reg_75 = normalized(2);
        row.reg_100 = normalized(3);
        row.vs = normalized(4);
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

  // Tasks [0, 3) read the regular-PDN references from the plan.  Their
  // worst case is all layers fully active, so the imbalance assumption
  // does not affect these lines (paper Fig. 6 caption).
  const auto references = fig6_references(ctx, layers);
  double* const reference_noise[] = {&result.reg_dense, &result.reg_sparse,
                                     &result.reg_few};

  // Every other task is one converter count's column: one PdnModel, built
  // and bound once, solves every imbalance from a cold start in one
  // lockstep batch, which gives the bits a fresh model per point would.
  // Only the plotted cells outlive the task.
  std::vector<std::vector<std::optional<double>>> columns(
      converter_counts.size());
  const TaskPool pool(options_.execution);
  const std::size_t tasks = references.size() + converter_counts.size();
  const std::size_t committed = pool.run_ordered(
      tasks,
      [&](std::size_t t) {
        if (t < references.size()) {
          *reference_noise[t] = plan_->values(ctx, references[t], 0u).noise;
          return;
        }
        const std::size_t c = t - references.size();
        const pdn::PdnModel model(
            make_stacked(ctx, layers, ctx.base.tsv, converter_counts[c]),
            ctx.layer_floorplan);
        std::vector<std::vector<pdn::LoadInjection>> load_sets;
        load_sets.reserve(imbalances.size());
        for (const double imbalance : imbalances) {
          load_sets.push_back(model.network().build_loads(
              ctx.core_model,
              power::interleaved_layer_activities(layers, imbalance)));
        }
        auto& column = columns[c];
        column.reserve(imbalances.size());
        for (const auto& sol : model.solve_cold(load_sets)) {
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
