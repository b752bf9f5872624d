#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/error.h"
#include "common/rng.h"
#include "core/campaign.h"
#include "core/campaign_manifest.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "la/solver.h"
#include "la/sparse.h"
#include "manufactured_grid.h"
#include "pdn/solver.h"
#include "pgio/campaign.h"
#include "pgio/grid.h"
#include "pgio/reader.h"
#include "pgio/validate.h"
#include "power/workload.h"
#include "shard/merge.h"
#include "shard/supervisor.h"
#include "shard/worker.h"
#include "telemetry/telemetry.h"

namespace vstack::e2e {

namespace fs = std::filesystem;

namespace {

constexpr const char* kWorkerMetricsEnv = "VSTACK_E2E_WORKER_METRICS";

double now_s() { return telemetry::monotonic_seconds(); }

std::string g17(double v) { return core::fmt_double_17g(v); }

std::string label(const char* prefix, std::size_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

core::StudyContext make_context(Tracer& tracer) {
  const Span span(tracer, "core.StudyContext.paper_defaults");
  return core::StudyContext::paper_defaults();
}

/// The rest of the set-up every PDN workload pays before its first round:
/// the workload's base model and its fault-free operating point.
void warm_up_model(Tracer& tracer, const core::StudyContext& ctx,
                   const pdn::StackupConfig& config,
                   const std::vector<double>& activities) {
  std::optional<pdn::PdnModel> model;
  {
    const Span span(tracer, "pdn.PdnModel");
    model.emplace(config, ctx.layer_floorplan);
  }
  const Span span(tracer, "pdn.PdnModel.solve_activities");
  const pdn::PdnSolution sol =
      model->solve_activities(ctx.core_model, activities);
  VS_REQUIRE(std::isfinite(sol.max_node_deviation_fraction),
             "warm-up solve produced a non-finite deviation");
}

// ---------------------------------------------------------------------------
// Campaign results, shared by the thread and shard workloads.

void record_campaign(const std::vector<core::CampaignScenarioResult>& scenarios,
                     RoundResult& out) {
  std::size_t recovered = 0, degraded = 0, lost = 0, timed_out = 0;
  double worst = 0.0;
  for (const auto& s : scenarios) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%zu %s c%d t%d a%zu n%zu s%zu ", s.index,
                  pdn::to_string(s.outcome), s.completed ? 1 : 0,
                  s.timed_out ? 1 : 0, s.attempts, s.action_count,
                  s.shutdown_count);
    out.lines.push_back(buf + g17(s.worst_droop) + " " + g17(s.final_droop) +
                        " " + g17(s.detected_at) + " " + g17(s.recovered_at));
    const std::string key = "scenario" + std::to_string(s.index);
    out.results[key + ".worst_droop"] = s.worst_droop;
    out.results[key + ".final_droop"] = s.final_droop;
    out.results[key + ".outcome"] = static_cast<double>(s.outcome);
    switch (s.outcome) {
      case pdn::RideThroughOutcome::Recovered: ++recovered; break;
      case pdn::RideThroughOutcome::Degraded: ++degraded; break;
      case pdn::RideThroughOutcome::Lost: ++lost; break;
    }
    if (s.timed_out) ++timed_out;
    if (s.completed) worst = std::max(worst, s.worst_droop);
    if (!s.completed || s.timed_out || s.deadline_truncated) ++out.failed;
    out.item_wall_s += s.wall_seconds;
  }
  out.items = scenarios.size();
  out.results["recovered"] = static_cast<double>(recovered);
  out.results["degraded"] = static_cast<double>(degraded);
  out.results["lost"] = static_cast<double>(lost);
  out.results["timed_out"] = static_cast<double>(timed_out);
  out.results["worst_droop"] = worst;
}

std::vector<std::string> check_campaign(const RoundResult& r,
                                        std::size_t trials) {
  std::vector<std::string> problems;
  if (r.items != trials) {
    problems.push_back(std::to_string(r.items) + " of " +
                       std::to_string(trials) + " scenarios committed");
  }
  if (r.failed > 0) {
    problems.push_back(std::to_string(r.failed) +
                       " scenarios truncated or timed out");
  }
  const auto worst = r.results.find("worst_droop");
  if (worst == r.results.end() ||
      !(worst->second > 0.0 && worst->second < 1.0)) {
    problems.push_back("campaign worst droop outside (0, 1)");
  }
  return problems;
}

// ---------------------------------------------------------------------------
// paper_sweep: the four independent-point figure sweeps, serial.

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const Options& o) {
    // Figure shapes of bench/fig6_ir_drop.cpp and fig8_power_efficiency.cpp;
    // the seed jitters the interior imbalance points by up to +-0.02.
    Rng rng(o.seed);
    const int steps = 10;
    for (int i = 0; i <= steps; ++i) {
      double x = static_cast<double>(i) / steps;
      if (i > 0 && i < steps) x += rng.uniform(-0.02, 0.02);
      fig6_imbalances_.push_back(x);
      if (i > 0) fig8_imbalances_.push_back(x);
    }
  }

  std::size_t jobs() const override { return 1; }

  void setup(Tracer& tracer) override {
    ctx_.emplace(make_context(tracer));
    warm_up_model(tracer, *ctx_,
                  core::make_stacked(*ctx_, options_.layers, ctx_->base.tsv, 8),
                  power::interleaved_layer_activities(options_.layers, 0.5));
  }

  RoundResult round(Tracer& tracer, int) override {
    RoundResult out;
    const core::SweepRunner runner(*ctx_, options_);
    std::vector<core::Fig5aRow> f5a;
    std::vector<core::Fig5bRow> f5b;
    core::Fig6Result f6;
    core::Fig8Result f8;
    {
      const Span span(tracer, "core.SweepRunner.fig5a");
      f5a = runner.fig5a();
    }
    {
      const Span span(tracer, "core.SweepRunner.fig5b");
      f5b = runner.fig5b();
    }
    {
      const Span span(tracer, "core.SweepRunner.fig6");
      f6 = runner.fig6(fig6_imbalances_);
    }
    {
      const Span span(tracer, "core.SweepRunner.fig8");
      f8 = runner.fig8(fig8_imbalances_);
    }

    using Row = std::vector<std::pair<std::string, std::optional<double>>>;
    const auto cells = [&](const std::string& key, const Row& row) {
      std::string line = key;
      for (const auto& [name, v] : row) {
        ++out.items;
        line += ' ';
        line += v ? g17(*v) : std::string("-");
        if (v) out.results[key + "." + name] = *v;
      }
      out.lines.push_back(line);
    };
    for (const auto& r : f5a) {
      cells(label("fig5a.L", r.layers),
            {{"reg_dense", r.reg_dense}, {"reg_sparse", r.reg_sparse},
             {"reg_few", r.reg_few}, {"vs_few", r.vs_few}});
    }
    for (const auto& r : f5b) {
      cells(label("fig5b.L", r.layers),
            {{"reg_25", r.reg_25}, {"reg_50", r.reg_50}, {"reg_75", r.reg_75},
             {"reg_100", r.reg_100}, {"vs", r.vs}});
    }
    cells("fig6.regular", {{"reg_dense", f6.reg_dense},
                           {"reg_sparse", f6.reg_sparse},
                           {"reg_few", f6.reg_few}});
    for (std::size_t i = 0; i < f6.rows.size(); ++i) {
      Row row;
      for (std::size_t c = 0; c < f6.converter_counts.size(); ++c) {
        row.emplace_back(label("c", f6.converter_counts[c]),
                         f6.rows[i].vs_noise[c]);
      }
      cells(label("fig6.i", i), row);
    }
    for (std::size_t i = 0; i < f8.rows.size(); ++i) {
      Row row;
      for (std::size_t c = 0; c < f8.converter_counts.size(); ++c) {
        row.emplace_back(label("c", f8.converter_counts[c]),
                         f8.rows[i].vs_efficiency[c]);
      }
      row.emplace_back("regular_sc", f8.rows[i].regular_sc);
      cells(label("fig8.i", i), row);
    }
    return out;
  }

  std::vector<std::string> check(const RoundResult& r) const override {
    std::vector<std::string> problems;
    for (const auto& [name, v] : r.results) {
      const bool efficiency = name.rfind("fig8.", 0) == 0;
      if (!std::isfinite(v) || v <= 0.0 || (efficiency && v > 1.0)) {
        problems.push_back("figure cell " + name + " = " + g17(v) +
                           " is outside its physical range");
      }
    }
    if (r.results.empty()) problems.push_back("no figure cells produced");
    return problems;
  }

  void probe(Tracer& tracer, const TracedTotals& t, Metrics& m,
             std::vector<std::string>&) override {
    for (const char* fig : {"fig5a", "fig5b", "fig6", "fig8"}) {
      m[std::string("core.") + fig + "_frac"] = {
          tracer.round_seconds(std::string("core.SweepRunner.") + fig) /
              t.wall_s,
          "ratio"};
    }
  }

 private:
  std::optional<core::StudyContext> ctx_;  // set by setup()
  core::SweepOptions options_;
  std::vector<double> fig6_imbalances_;
  std::vector<double> fig8_imbalances_;
};

// ---------------------------------------------------------------------------
// campaign_threads: CampaignRunner::run at the CLI-default shape, jobs=4,
// with the fsynced checkpoint manifest on.

class CampaignThreads final : public Workload {
 public:
  explicit CampaignThreads(const Options& o) : work_dir_(o.work_dir) {
    spec_.seed = o.seed;
    spec_.layers = 8;
    spec_.grid = 16;
    spec_.trials = 4;
    spec_.imbalance = 0.8;
    spec_.scenario_timeout_s = 30.0;  // `vstack_cli campaign` default
  }

  std::size_t jobs() const override { return 4; }

  void setup(Tracer& tracer) override {
    ctx_.emplace(make_context(tracer));
    campaign_ = shard::make_campaign(*ctx_, spec_);
    campaign_.options.execution.jobs = jobs();
    warm_up_model(tracer, *ctx_, campaign_.config, campaign_.activities);
  }

  RoundResult round(Tracer& tracer, int index) override {
    core::CampaignOptions options = campaign_.options;
    manifest_ = work_dir_ + "/manifest-" + std::to_string(index) + ".jsonl";
    options.manifest_path = manifest_;
    const core::CampaignRunner runner(*ctx_, campaign_.config);
    core::CampaignReport report;
    {
      const Span span(tracer, "core.CampaignRunner.run");
      report = runner.run(campaign_.activities, options);
    }
    RoundResult out;
    record_campaign(report.scenarios, out);
    if (report.cancelled) ++out.failed;
    return out;
  }

  void after_round(Tracer&) override { fs::remove(manifest_); }

  std::vector<std::string> check(const RoundResult& r) const override {
    return check_campaign(r, spec_.trials);
  }

 private:
  std::string work_dir_;
  shard::JobSpec spec_;
  std::optional<core::StudyContext> ctx_;  // set by setup()
  shard::CampaignSetup campaign_;
  std::string manifest_;
};

// ---------------------------------------------------------------------------
// campaign_shards: shard::run_supervised_job with 4 worker processes.

class CampaignShards final : public Workload {
 public:
  static constexpr std::size_t kWorkers = 4;

  explicit CampaignShards(const Options& o)
      : work_dir_(o.work_dir), self_exe_(o.self_exe) {
    spec_.seed = o.seed;
    spec_.layers = 8;
    spec_.grid = 8;
    spec_.trials = 12;
    spec_.imbalance = 0.8;
    spec_.chunk = 1;
  }

  std::size_t jobs() const override { return kWorkers; }

  void setup(Tracer& tracer) override {
    ctx_.emplace(make_context(tracer));
    const shard::CampaignSetup campaign = shard::make_campaign(*ctx_, spec_);
    warm_up_model(tracer, *ctx_, campaign.config, campaign.activities);
  }

  RoundResult round(Tracer& tracer, int index) override {
    job_dir_ = work_dir_ + "/job-" + std::to_string(index);
    metrics_dir_ = job_dir_ + ".metrics";
    fs::create_directories(metrics_dir_);
    VS_REQUIRE(::setenv(kWorkerMetricsEnv, metrics_dir_.c_str(), 1) == 0,
               "cannot export the worker metrics directory");
    shard::SupervisorOptions sup;
    sup.job_dir = job_dir_;
    sup.shards = kWorkers;
    sup.worker_command = {self_exe_};
    sup.worker_jobs = 1;
    shard::SupervisorReport report;
    {
      const Span span(tracer, "shard.run_supervised_job");
      report = shard::run_supervised_job(*ctx_, spec_, sup);
    }
    RoundResult out;
    record_campaign(report.merge.report.scenarios, out);
    out.failed += report.merge.quarantined_trials.size() +
                  report.merge.missing_trials.size();
    out.remote = read_worker_counts();
    return out;
  }

  void after_round(Tracer& tracer) override {
    if (tracer.enabled()) {
      // The merge is re-run on the finished job so its cost is measured
      // apart from the fleet's.
      const Span span(tracer, "shard.merge_job");
      shard::merge_job(*ctx_, job_dir_, job_dir_ + "/merged-rerun.jsonl");
    }
    fs::remove_all(job_dir_);
    fs::remove_all(metrics_dir_);
  }

  std::vector<std::string> check(const RoundResult& r) const override {
    return check_campaign(r, spec_.trials);
  }

  void probe(Tracer& tracer, const TracedTotals& t, Metrics& m,
             std::vector<std::string>&) override {
    m["shard.overhead_frac"] = {
        1.0 - t.item_wall_s / (static_cast<double>(kWorkers) * t.wall_s),
        "ratio"};
    m["shard.merge_frac"] = {
        tracer.round_seconds("shard.merge_job") / t.wall_s,
        "ratio"};
  }

 private:
  Counts read_worker_counts() const {
    Counts total;
    for (const auto& entry : fs::directory_iterator(metrics_dir_)) {
      std::ifstream in(entry.path());
      std::string name;
      double value = 0.0;
      while (in >> name >> value) total[name] += value;
    }
    return total;
  }

  std::string work_dir_;
  std::string self_exe_;
  shard::JobSpec spec_;
  std::optional<core::StudyContext> ctx_;  // set by setup()
  std::string job_dir_;
  std::string metrics_dir_;
};

// ---------------------------------------------------------------------------
// ext_grid: a manufactured-solution mesh imported through pgio, validated
// under both kernel backends, then swept N-1 over its top-8 conductors.

class ExtGrid final : public Workload {
 public:
  static constexpr std::size_t kTopK = 8;
  static constexpr std::size_t kSide = 256;
  static constexpr int kProbeRepeats = 3;
  static constexpr int kSpmvCalls = 50;

  explicit ExtGrid(const Options& o)
      : input_(write_manufactured_grid(o.work_dir, kSide, o.seed)) {}

  std::size_t jobs() const override { return 4; }

  void setup(Tracer& tracer) override {
    grid_.reset();
    netlist_.reset();
    double t0 = now_s();
    {
      const Span span(tracer, "pgio.read_netlist_file");
      netlist_ = std::make_unique<pgio::PgNetlist>(
          pgio::read_netlist_file(input_.netlist_path));
    }
    parse_s_.push_back(now_s() - t0);
    t0 = now_s();
    {
      const Span span(tracer, "pgio.ImportedGrid");
      grid_ = std::make_unique<pgio::ImportedGrid>(*netlist_);
    }
    build_s_.push_back(now_s() - t0);
    {
      const Span span(tracer, "pgio.read_solution_file");
      golden_ = pgio::read_solution_file(input_.solution_path);
    }
    // Fault-free operating point, as the PDN workloads' set-up solves
    // theirs; on a copy, so the rounds still start from a never-solved grid.
    const Span span(tracer, "pgio.ImportedGrid.solve");
    VS_REQUIRE(pgio::ImportedGrid(*grid_).solve().solve_ok,
               "set-up solve of the imported grid failed");
  }

  RoundResult round(Tracer& tracer, int) override {
    // Fresh copies of the never-solved import: every round starts cold.
    std::optional<pgio::ImportedGrid> validated;
    std::optional<pgio::ImportedGrid> swept;
    {
      const Span span(tracer, "pgio.ImportedGrid.copy");
      validated.emplace(*grid_);
      swept.emplace(*grid_);
    }
    const pgio::ValidateOptions tolerance_1uv;  // both backends, 1e-6 V
    pgio::ValidationReport validation;
    {
      const Span span(tracer, "pgio.validate");
      validation = pgio::validate(*validated, golden_, tolerance_1uv);
    }
    core::ContingencyReport n1;
    {
      const Span span(tracer, "pgio.run_n_minus_1");
      pgio::GridCampaignOptions options;
      options.top_k = kTopK;
      options.execution.jobs = jobs();
      n1 = pgio::run_n_minus_1(*swept, options);
    }

    RoundResult out;
    for (const auto& b : validation.backends) {
      ++out.items;
      if (!b.solve_ok) ++out.failed;
      out.lines.push_back("validate " + b.backend + " pass=" +
                          (b.pass() ? "1" : "0") + " compared=" +
                          std::to_string(b.compared) + " missing=" +
                          std::to_string(b.missing) + " max_err=" +
                          g17(b.max_abs_error_v));
      out.results["validate." + b.backend + ".pass"] = b.pass() ? 1.0 : 0.0;
      out.results["validate." + b.backend + ".compared"] =
          static_cast<double>(b.compared);
    }
    out.lines.push_back("baseline " + g17(n1.base_max_node_deviation_fraction) +
                        " " + g17(n1.base_supply_current));
    out.results["base_deviation"] = n1.base_max_node_deviation_fraction;
    out.results["base_supply_a"] = n1.base_supply_current;
    for (std::size_t i = 0; i < n1.cases.size(); ++i) {
      const auto& c = n1.cases[i];
      ++out.items;
      if (!c.solved) ++out.failed;
      out.lines.push_back(c.label + " " +
                          std::to_string(static_cast<int>(c.outcome)) + " " +
                          g17(c.max_node_deviation_fraction));
      out.results["case" + std::to_string(i) + ".deviation"] =
          c.max_node_deviation_fraction;
    }
    out.results["cases"] = static_cast<double>(n1.cases.size());
    out.results["survivable"] = static_cast<double>(n1.survivable);
    out.results["degraded"] = static_cast<double>(n1.degraded);
    out.results["infeasible"] = static_cast<double>(n1.infeasible);
    return out;
  }

  std::vector<std::string> check(const RoundResult& r) const override {
    std::vector<std::string> problems;
    for (const char* b : {"reference", "optimized"}) {
      const auto it = r.results.find(std::string("validate.") + b + ".pass");
      if (it == r.results.end() || it->second != 1.0) {
        problems.push_back(std::string("validate under ") + b +
                           " did not match the manufactured solution within "
                           "1e-6 V");
      }
    }
    const double supply = r.results.at("base_supply_a");
    const double imbalance =
        std::abs(supply - input_.total_load_a) / input_.total_load_a;
    if (!(imbalance <= 1e-6)) {
      problems.push_back("power balance |supply - load| / load = " +
                         g17(imbalance) + " exceeds 1e-6");
    }
    if (r.results.at("infeasible") != 0.0) {
      problems.push_back("an N-1 case on the mesh came out infeasible");
    }
    if (r.results.at("cases") != static_cast<double>(kTopK)) {
      problems.push_back("N-1 sweep evaluated " + g17(r.results.at("cases")) +
                         " cases, not " + std::to_string(kTopK));
    }
    if (r.failed > 0) problems.push_back("a grid solve failed");
    return problems;
  }

  void probe(Tracer& tracer, const TracedTotals& t, Metrics& m,
             std::vector<std::string>& problems) override {
    const double mb = static_cast<double>(input_.netlist_bytes) / 1e6;
    m["pgio.parse_mb_per_s"] = {mb / quantile(parse_s_, 0.5), "MB/s"};
    m["pgio.grid_build_mnodes_per_s"] = {
        static_cast<double>(input_.nodes) / 1e6 / quantile(build_s_, 0.5),
        "Mnodes/s"};
    m["pgio.validate_frac"] = {
        tracer.round_seconds("pgio.validate") / t.wall_s,
        "ratio"};
    m["pgio.n1_frac"] = {
        tracer.round_seconds("pgio.run_n_minus_1") / t.wall_s,
        "ratio"};

    // Solver probe: the stamp -> build -> bind -> cold solve sequence that
    // ImportedGrid::solve performs, timed call by call, plus each backend's
    // bare SpMV kernel.  Repeated; medians are reported.
    const std::size_t n = grid_->unknown_count();
    const pgio::GridSolveOptions defaults;
    const std::vector<std::pair<std::string, la::BackendChoice>> backends{
        {"reference", la::BackendChoice::Reference},
        {"optimized", la::BackendChoice::Optimized}};
    std::map<std::string, la::Vector> expected;
    for (const auto& [name, choice] : backends) {
      pgio::GridSolveOptions options;
      options.backend = choice;
      expected[name] = pgio::ImportedGrid(*grid_).solve(options).voltages;
    }
    std::map<std::string, std::vector<double>> seconds;
    std::map<std::string, std::size_t> iterations;
    double nnz = 0.0;
    for (int rep = 0; rep < kProbeRepeats; ++rep) {
      la::CooBuilder coo(n);
      la::Vector fixed_rhs;
      la::Vector load_rhs;
      la::CsrMatrix matrix;
      double t0 = now_s();
      {
        const Span span(tracer, "pgio.ImportedGrid.stamp_conductances");
        grid_->stamp_conductances(coo, fixed_rhs, load_rhs);
      }
      {
        const Span span(tracer, "la.CooBuilder.build");
        matrix = coo.build();
      }
      seconds["stamp"].push_back(now_s() - t0);
      nnz = static_cast<double>(matrix.nnz());
      la::Vector rhs(n);
      for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = fixed_rhs[i] + 1.0 * load_rhs[i];
      }
      for (const auto& [name, choice] : backends) {
        la::SolveOptions solve_options;
        solve_options.preconditioner = defaults.preconditioner;
        solve_options.backend = choice;
        std::optional<la::Solver> solver;
        t0 = now_s();
        {
          const Span span(tracer, "la.Solver.bind." + name);
          solver.emplace(matrix, solve_options);
        }
        seconds["bind." + name].push_back(now_s() - t0);
        la::Vector x(n, 0.0);
        la::SolveReport report;
        t0 = now_s();
        {
          const Span span(tracer, "la.Solver.solve." + name);
          report = solver->solve(rhs, x, defaults.iterative);
        }
        seconds["solve." + name].push_back(now_s() - t0);
        iterations[name] = report.iterations;
        if (!report.converged || x != expected[name]) {
          problems.push_back("solver probe under " + name +
                             " is not bitwise equal to ImportedGrid::solve");
        }

        const la::Backend& backend = solver->backend();
        const auto prepared = backend.prepare(matrix);
        la::Vector y;
        t0 = now_s();
        {
          const Span span(tracer, "la.Backend.spmv." + name);
          for (int k = 0; k < kSpmvCalls; ++k) backend.spmv(*prepared, x, y);
        }
        seconds["spmv." + name].push_back((now_s() - t0) / kSpmvCalls);
      }
    }
    const auto rate = [&](const std::string& key, double work) {
      return work / quantile(seconds.at(key), 0.5);
    };
    m["pgio.stamp_mnnz_per_s"] = {rate("stamp", nnz / 1e6), "Mnnz/s"};
    for (const auto& [name, choice] : backends) {
      const double iters = static_cast<double>(iterations[name]);
      m["la.probe.iters." + name] = {iters, "count"};
      m["la.probe.iters_per_s." + name] = {rate("solve." + name, iters), "1/s"};
      m["la.probe.bind_mnnz_per_s." + name] = {rate("bind." + name, nnz / 1e6),
                                               "Mnnz/s"};
      m["la.probe.spmv_mnnz_per_s." + name] = {
          rate("spmv." + name, nnz / 1e6), "Mnnz/s"};
    }
    // CSR values + 64-bit column indices streamed once by SpMV and once by
    // the ILU(0) sweeps over the same pattern, plus ~20 vector streams of
    // the CG update: computed from sizes, not measured.
    m["la.bytes_per_iter_computed"] = {
        32.0 * nnz + 160.0 * static_cast<double>(n), "B"};
  }

 private:
  ManufacturedGrid input_;
  std::unique_ptr<pgio::PgNetlist> netlist_;
  std::unique_ptr<pgio::ImportedGrid> grid_;
  pgio::GoldenSolution golden_;
  std::vector<double> parse_s_;
  std::vector<double> build_s_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "paper_sweep") return std::make_unique<PaperSweep>(o);
  if (o.workload == "campaign_threads") {
    return std::make_unique<CampaignThreads>(o);
  }
  if (o.workload == "campaign_shards") {
    return std::make_unique<CampaignShards>(o);
  }
  if (o.workload == "ext_grid") return std::make_unique<ExtGrid>(o);
  VS_REQUIRE(false, "unknown workload '" + o.workload +
                        "' (paper_sweep|campaign_threads|campaign_shards|"
                        "ext_grid)");
  return nullptr;
}

int run_shard_worker(const std::string& job_dir, const std::string& worker_id,
                     std::size_t jobs) {
  shard::WorkerOptions options;
  options.job_dir = job_dir;
  options.worker_id = worker_id;
  options.jobs = jobs;
  const auto ctx = core::StudyContext::paper_defaults();
  shard::run_worker(ctx, options);
  if (const char* dir = std::getenv(kWorkerMetricsEnv)) {
    const std::string path = std::string(dir) + "/" + worker_id + "." +
                             std::to_string(::getpid()) + ".txt";
    std::ofstream out(path);
    for (const auto& [name, value] : read_counts()) {
      out << name << " " << g17(value) << "\n";
    }
    VS_REQUIRE(static_cast<bool>(out), "cannot write '" + path + "'");
  }
  return 0;
}

}  // namespace vstack::e2e
