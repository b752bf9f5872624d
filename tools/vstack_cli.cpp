// vstack command-line tool: run individual analyses or whole paper sweeps
// from the shell.
//
//   vstack_cli noise      [--config=FILE] [--layers=8] [--topology=stacked]
//                         [--imbalance=0.5] [--converters=8] [--map]
//   vstack_cli em         [--config=FILE] [--layers=8] [--topology=...]
//   vstack_cli efficiency [--layers=8] [--converters=8] [--imbalance=0.5]
//   vstack_cli thermal    [--layers=8] [--sink=0.42]
//   vstack_cli sweep --figure=5a|5b|6|7|8
//   vstack_cli spice FILE [--verbose]
//   vstack_cli import FILE [--solve] [--dump=OUT] [--verbose]
//   vstack_cli validate FILE [--solution=F] [--tol=1e-6]
//   vstack_cli ride-through [--layers=8] [--fault-level=3] [--keep=32]
//                         [--fault-time=2e-6] [--duration=4e-6] [--verbose]
//   vstack_cli campaign   [--trials=8] [--seed=42] [--manifest=FILE]
//                         [--compare] [--timeout=30] [--verbose]
//   vstack_cli config     [--config=FILE]   ; echo the resolved config
//
// Exit codes: 0 success, 1 usage/precondition error, 2 truncated or
// incomplete result (spice / ride-through / campaign / validate solver
// failure), 3 outcome failure (ride-through Lost, contingency with
// Infeasible cases, validate over tolerance).
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "chaos/explorer.h"
#include "circuit/spice_parser.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/shutdown.h"
#include "common/table.h"
#include "la/backend.h"
#include "core/campaign.h"
#include "core/contingency.h"
#include "core/sweeps.h"
#include "floorplan/heatmap.h"
#include "pdn/config_io.h"
#include "pdn/ride_through.h"
#include "pgio/campaign.h"
#include "pgio/export.h"
#include "pgio/grid.h"
#include "pgio/reader.h"
#include "pgio/validate.h"
#include "power/workload.h"
#include "service/server.h"
#include "shard/job.h"
#include "shard/merge.h"
#include "shard/supervisor.h"
#include "shard/worker.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "thermal/thermal_grid.h"

namespace {

using namespace vstack;

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  VS_REQUIRE(static_cast<bool>(file), "cannot open '" + path + "'");
  std::ostringstream oss;
  oss << file.rdbuf();
  return oss.str();
}

/// Scenario scheduling from --jobs: N worker threads, or auto (VSTACK_JOBS
/// env override, else hardware concurrency) when the flag is absent.
/// Results are reduced in scenario order, so output and manifests do not
/// depend on the job count (docs/parallel_execution.md).
core::ExecutionPolicy resolve_execution(const CliArgs& args) {
  core::ExecutionPolicy policy;
  policy.jobs = args.get_size("jobs", 0);  // 0 = auto
  // SIGINT/SIGTERM cancel the shutdown token; runners then stop at the
  // next chunk boundary with the committed prefix intact and main() maps
  // the interruption onto kInterruptExitCode.  Commands that never install
  // the handlers carry a token that simply never fires.
  policy.deadline = shutdown_token();
  return policy;
}

/// Resolve a StackupConfig from --config plus individual flag overrides.
pdn::StackupConfig resolve_config(const core::StudyContext& ctx,
                                  const CliArgs& args) {
  pdn::StackupConfig cfg = ctx.base;
  if (args.has("config")) {
    cfg = pdn::parse_stackup_config(read_file(args.get_string("config", "")),
                                    cfg);
  }
  if (args.has("topology")) {
    const std::string t = args.get_string("topology", "");
    VS_REQUIRE(t == "regular" || t == "stacked",
               "--topology expects regular|stacked");
    cfg.topology = (t == "stacked") ? pdn::PdnTopology::VoltageStacked
                                    : pdn::PdnTopology::Regular3d;
  } else if (!args.has("config")) {
    cfg.topology = pdn::PdnTopology::VoltageStacked;  // tool default
  }
  cfg.layer_count = args.get_size("layers", cfg.layer_count);
  if (cfg.topology == pdn::PdnTopology::VoltageStacked &&
      cfg.layer_count < 2) {
    cfg.layer_count = 8;
  }
  cfg.converters_per_core =
      args.get_size("converters", cfg.converters_per_core);
  const std::size_t grid = args.get_size("grid", cfg.grid_nx);
  cfg.grid_nx = cfg.grid_ny = grid;
  cfg.validate();
  return cfg;
}

int cmd_noise(const core::StudyContext& ctx, const CliArgs& args) {
  const auto cfg = resolve_config(ctx, args);
  pdn::PdnModel model(cfg, ctx.layer_floorplan);
  const double imbalance = args.get_double("imbalance", 0.5);
  const auto acts =
      power::interleaved_layer_activities(cfg.layer_count, imbalance);
  const auto sol = model.solve_activities(ctx.core_model, acts);

  TextTable t({"Metric", "Value"});
  t.add_row({"max node deviation",
             TextTable::percent(sol.max_node_deviation_fraction, 3)});
  t.add_row({"max load-span droop",
             TextTable::percent(sol.max_ir_drop_fraction, 3)});
  t.add_row({"supply", TextTable::num(sol.supply_voltage, 1) + " V / " +
                           TextTable::num(sol.supply_current, 2) + " A"});
  if (cfg.is_voltage_stacked()) {
    t.add_row({"max converter current",
               TextTable::num(sol.max_converter_current * 1e3, 1) + " mA" +
                   (sol.converter_limit_ok ? "" : "  (LIMIT EXCEEDED)")});
  }
  t.print(std::cout);

  if (args.get_bool("map")) {
    std::cout << "\nWorst-layer droop map:\n";
    std::size_t worst = 0;
    double best = -1.0;
    for (std::size_t l = 0; l < cfg.layer_count; ++l) {
      const double m = *std::max_element(sol.layer_droop[l].values.begin(),
                                         sol.layer_droop[l].values.end());
      if (m > best) {
        best = m;
        worst = l;
      }
    }
    floorplan::HeatmapOptions opts;
    opts.legend_scale = 1e3;
    opts.legend_unit = "mV";
    floorplan::render_heatmap(sol.layer_droop[worst], std::cout, opts);
  }
  return 0;
}

int cmd_em(const core::StudyContext& ctx, const CliArgs& args) {
  const auto cfg = resolve_config(ctx, args);
  const auto r = core::evaluate_scenario(
      ctx, cfg, std::vector<double>(cfg.layer_count, 1.0));
  // Normalize to the paper's 2-layer V-S reference.
  const auto baseline = core::evaluate_scenario(
      ctx, core::make_stacked(ctx, 2, ctx.base.tsv, 8),
      std::vector<double>(2, 1.0));
  TextTable t({"Array", "MTTF (normalized to 2-layer V-S)"});
  t.add_row({"TSV", TextTable::num(r.tsv_mttf / baseline.tsv_mttf, 3)});
  t.add_row({"C4", TextTable::num(r.c4_mttf / baseline.c4_mttf, 3)});
  t.print(std::cout);
  return 0;
}

int cmd_efficiency(const core::StudyContext& ctx, const CliArgs& args) {
  const std::size_t layers = args.get_size("layers", 8);
  const std::size_t conv = args.get_size("converters", 8);
  const double imbalance = args.get_double("imbalance", 0.5);
  const auto r = core::stacked_efficiency(ctx, layers, conv, imbalance);
  TextTable t({"Metric", "Value"});
  t.add_row({"system efficiency", TextTable::percent(r.efficiency, 2)});
  t.add_row({"max converter current",
             TextTable::num(r.max_converter_current * 1e3, 1) + " mA"});
  t.add_row({"within limits", r.feasible ? "yes" : "NO"});
  t.print(std::cout);
  return 0;
}

int cmd_thermal(const core::StudyContext& ctx, const CliArgs& args) {
  const std::size_t layers = args.get_size("layers", 8);
  thermal::ThermalConfig tcfg;
  tcfg.sink_resistance = args.get_double("sink", tcfg.sink_resistance);
  const auto map = floorplan::layer_power_map(
      ctx.layer_floorplan, ctx.core_model, std::vector<double>(16, 1.0),
      tcfg.nx, tcfg.ny);
  std::vector<floorplan::GridMap> stack(layers, map);
  const auto r = thermal::solve_stack_temperature(
      tcfg, ctx.layer_floorplan.width, ctx.layer_floorplan.height, stack);
  TextTable t({"Metric", "Value"});
  t.add_row({"hotspot", TextTable::num(r.max_celsius, 1) + " C (layer " +
                            std::to_string(r.hottest_layer) + ")"});
  t.add_row({"mean", TextTable::num(r.mean_celsius, 1) + " C"});
  t.print(std::cout);
  return 0;
}

// One printer per paper figure, shared by `sweep` and `report`.

void print_fig5a(const std::vector<core::Fig5aRow>& rows) {
  TextTable t({"Layers", "Reg Dense", "Reg Sparse", "Reg Few", "V-S Few"});
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.layers), TextTable::num(r.reg_dense, 3),
               TextTable::num(r.reg_sparse, 3), TextTable::num(r.reg_few, 3),
               TextTable::num(r.vs_few, 3)});
  }
  t.print(std::cout);
}

void print_fig5b(const std::vector<core::Fig5bRow>& rows) {
  TextTable t({"Layers", "25%", "50%", "75%", "100%", "V-S"});
  for (const auto& r : rows) {
    t.add_row({std::to_string(r.layers), TextTable::num(r.reg_25, 3),
               TextTable::num(r.reg_50, 3), TextTable::num(r.reg_75, 3),
               TextTable::num(r.reg_100, 3), TextTable::num(r.vs, 3)});
  }
  t.print(std::cout);
}

void print_fig6(const core::Fig6Result& result) {
  TextTable t({"Imbalance", "2/core", "4/core", "6/core", "8/core"});
  for (const auto& row : result.rows) {
    std::vector<std::string> cells{TextTable::percent(row.imbalance, 0)};
    for (const auto& v : row.vs_noise) {
      cells.push_back(v ? TextTable::percent(*v, 2) : "-");
    }
    t.add_row(std::move(cells));
  }
  t.print(std::cout);
}

void print_fig7(const std::vector<power::ApplicationPowerSummary>& apps) {
  TextTable t({"Application", "Median (W)", "Max Imbalance"});
  for (const auto& app : apps) {
    t.add_row({app.name, TextTable::num(app.power.median, 3),
               TextTable::percent(app.max_imbalance, 1)});
  }
  t.print(std::cout);
}

void print_fig8(const core::Fig8Result& result) {
  TextTable t({"Imbalance", "2/core", "4/core", "6/core", "8/core", "Reg+SC"});
  for (const auto& row : result.rows) {
    std::vector<std::string> cells{TextTable::percent(row.imbalance, 0)};
    for (const auto& v : row.vs_efficiency) {
      cells.push_back(v ? TextTable::percent(*v, 1) : "-");
    }
    cells.push_back(TextTable::percent(row.regular_sc, 1));
    t.add_row(std::move(cells));
  }
  t.print(std::cout);
}

int cmd_sweep(const core::StudyContext& ctx, const CliArgs& args) {
  const std::string figure = args.get_string("figure", "");
  VS_REQUIRE(!figure.empty(), "sweep requires --figure=5a|5b|6|7|8");
  core::SweepOptions sweep_options;
  sweep_options.execution = resolve_execution(args);
  const core::SweepRunner sweeps(ctx, sweep_options);
  if (figure == "5a") {
    print_fig5a(sweeps.fig5a());
  } else if (figure == "5b") {
    print_fig5b(sweeps.fig5b());
  } else if (figure == "6") {
    print_fig6(sweeps.fig6({0.0, 0.25, 0.5, 0.75, 1.0}));
  } else if (figure == "7") {
    print_fig7(sweeps.fig7());
  } else if (figure == "8") {
    print_fig8(sweeps.fig8({0.1, 0.3, 0.5, 0.7, 0.9}));
  } else {
    VS_FAIL("unknown figure '" + figure + "' (5a|5b|6|7|8)");
  }
  return 0;
}

int cmd_report(const core::StudyContext& ctx, const CliArgs& args) {
  // One-command reproduction: all figure sweeps back to back.
  core::SweepOptions sweep_options;
  sweep_options.execution = resolve_execution(args);
  const core::SweepRunner sweeps(ctx, sweep_options);
  std::cout << "# vstack reproduction report\n";
  std::cout << "\n## Fig 5a -- TSV EM lifetime (normalized to 2-layer V-S)\n";
  print_fig5a(sweeps.fig5a());
  std::cout << "\n## Fig 5b -- C4 EM lifetime\n";
  print_fig5b(sweeps.fig5b());
  std::cout << "\n## Fig 6 -- voltage noise vs imbalance (8 layers)\n";
  {
    std::vector<double> imbalances;
    for (int x = 0; x <= 100; x += 10) imbalances.push_back(x / 100.0);
    const auto result = sweeps.fig6(imbalances);
    print_fig6(result);
    std::cout << "regular refs: Dense " << TextTable::percent(result.reg_dense, 2)
              << ", Sparse " << TextTable::percent(result.reg_sparse, 2)
              << ", Few " << TextTable::percent(result.reg_few, 2) << "\n";
  }
  std::cout << "\n## Fig 7 -- PARSEC workload imbalance\n";
  {
    const auto campaign = sweeps.fig7();
    print_fig7(campaign);
    std::cout << "mean max-imbalance: "
              << TextTable::percent(power::mean_max_imbalance(campaign), 1)
              << " (paper: 65%)\n";
  }
  std::cout << "\n## Fig 8 -- system power efficiency (8 layers)\n";
  {
    std::vector<double> imbalances;
    for (int x = 10; x <= 100; x += 10) imbalances.push_back(x / 100.0);
    print_fig8(sweeps.fig8(imbalances));
  }
  std::cout << "\nSee EXPERIMENTS.md for paper-vs-measured commentary.\n";
  return 0;
}

/// --verbose: dump a TransientReport's recovery/event trail (supervisor
/// actions, fault applications, solver fallbacks) with timestamps.
void print_trail(const sim::TransientReport& report) {
  for (const auto& e : report.events) {
    std::cout << "  [" << TextTable::num(e.time * 1e9, 3) << " ns] " << e.what
              << "\n";
  }
  if (report.events_dropped > 0) {
    std::cout << "  (+" << report.events_dropped << " more events dropped)\n";
  }
}

// Imported-benchmark routes; defined with the other pgio commands below.
int cmd_contingency_netlist(const CliArgs& args);
int cmd_ride_through_netlist(const CliArgs& args);

int cmd_ride_through(const core::StudyContext& ctx, const CliArgs& args) {
  if (args.has("netlist")) return cmd_ride_through_netlist(args);
  auto cfg = resolve_config(ctx, args);
  if (!args.has("layers") && !args.has("config")) {
    cfg.layer_count = 8;  // demo default: 8-layer stack, fault on rail 3
    cfg.validate();
  }
  const double imbalance = args.get_double("imbalance", 0.8);
  const auto acts =
      power::interleaved_layer_activities(cfg.layer_count, imbalance);
  const pdn::PdnModel model(cfg, ctx.layer_floorplan);

  pdn::RideThroughOptions opt;
  opt.transient.duration = args.get_double("duration", 4e-6);
  opt.supervisor = core::calibrated_supervisor_policy();
  opt.supervisor.watchdog_timeout = 1e-6;  // the demo keeps a 1 us watchdog

  // Demo scenario: most of one intermediate rail's converter bank sticks
  // off mid-run, leaving `keep` surviving phases.
  const std::size_t fault_level = args.get_size(
      "fault-level", std::min<std::size_t>(3, cfg.layer_count - 1));
  const pdn::ConverterBankFault fault = pdn::converter_bank_fault(
      model, fault_level, args.get_size("keep", 32),
      args.get_double("fault-time", 2e-6));
  std::cout << "fault: " << fault.event.faults.size() << " of "
            << fault.bank_size << " converters at level " << fault_level
            << " stuck off at " << TextTable::num(fault.event.time * 1e9, 1)
            << " ns\n";
  opt.transient.fault_events.push_back(fault.event);

  if (args.get_size("jobs", 1) > 1) {
    std::cout << "note: ride-through is a single scenario; --jobs only "
                 "affects multi-scenario commands (campaign, contingency, "
                 "sweep, report)\n";
  }
  const auto r = pdn::simulate_ride_through(model, ctx.core_model, acts, opt);
  const auto& rep = r.report;

  TextTable t({"Metric", "Value"});
  t.add_row({"outcome", pdn::to_string(rep.outcome)});
  t.add_row({"detected",
             rep.detected_at >= 0.0
                 ? TextTable::num(rep.detected_at * 1e9, 1) + " ns"
                 : "never tripped"});
  t.add_row({"recovered",
             rep.recovered_at >= 0.0
                 ? TextTable::num(rep.recovered_at * 1e9, 1) + " ns"
                 : "-"});
  t.add_row({"worst droop", TextTable::percent(rep.worst_droop, 2)});
  t.add_row({"final droop", TextTable::percent(rep.final_droop, 2)});
  t.add_row({"actions", std::to_string(rep.actions.size())});
  t.print(std::cout);

  if (!rep.actions.empty()) {
    std::cout << "\nsupervisor actions:\n";
    for (const auto& a : rep.actions) std::cout << "  " << a.describe() << "\n";
  }
  std::cout << "\nengine: " << rep.transient.summary() << "\n";
  if (args.get_bool("verbose")) print_trail(rep.transient);

  if (!rep.ok()) {
    std::cout << "warning: waveform truncated (" << rep.transient.diagnostic
              << ")\n";
    return 2;
  }
  return rep.outcome == pdn::RideThroughOutcome::Lost ? 3 : 0;
}

/// The running binary's own path, for re-exec'ing as shard workers;
/// falls back to the bare name (PATH lookup) off-Linux.
std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "vstack_cli";
  buf[n] = '\0';
  return buf;
}

int cmd_campaign(const core::StudyContext& ctx, const CliArgs& args) {
  // The flags fill a shard::JobSpec, and shard::make_campaign builds the
  // campaign from it, as it does for the service and every shard worker.
  // --config and --converters reach only the serial runner, through the
  // resolved config.
  const auto cfg = resolve_config(ctx, args);
  shard::JobSpec spec;
  spec.stacked = cfg.is_voltage_stacked();
  spec.layers = cfg.layer_count;
  spec.grid = cfg.grid_nx;
  spec.imbalance = args.get_double("imbalance", spec.imbalance);
  spec.trials = args.get_size("trials", spec.trials);
  spec.faults_per_trial = args.get_size("faults", spec.faults_per_trial);
  spec.converter_faults_per_trial =
      args.get_size("conv-faults", spec.stacked ? 32 : 0);
  spec.seed = args.get_size("seed", spec.seed);
  spec.duration_s = args.get_double("duration", spec.duration_s);
  spec.fault_time_s = args.get_double("fault-time", spec.fault_time_s);
  spec.scenario_timeout_s = args.get_double("timeout", 30.0);
  spec.max_retries = args.get_size("retries", spec.max_retries);

  if (args.has("shards")) {
    // Multi-process fleet: supervisor + N worker processes against a
    // shared --job-dir, merged back to one manifest (docs/
    // distributed_campaigns.md).  The job plan carries only flag-shaped
    // configs, so file-based overrides cannot ride along.
    VS_REQUIRE(!args.has("config") && !args.has("converters"),
               "--shards carries the config in the job plan; use --layers/"
               "--grid/--topology/--imbalance instead of --config/"
               "--converters");
    VS_REQUIRE(!args.get_bool("compare"),
               "--shards and --compare are mutually exclusive");
    spec.chunk = args.get_size("chunk", spec.chunk);
    spec.max_attempts = args.get_size("max-attempts", spec.max_attempts);
    spec.lease_expiry_s = args.get_double("lease-expiry", spec.lease_expiry_s);
    spec.heartbeat_s = args.get_double("heartbeat", spec.heartbeat_s);

    shard::SupervisorOptions sup;
    sup.job_dir = args.get_string("job-dir", "");
    VS_REQUIRE(!sup.job_dir.empty(), "--shards requires --job-dir=DIR");
    sup.shards = args.get_size("shards", 2);
    sup.worker_command = {self_exe_path()};
    sup.worker_jobs = args.get_size("jobs", 1);
    sup.max_restarts = args.get_size("max-restarts", sup.max_restarts);
    sup.stop = shutdown_token();

    const auto result = shard::run_supervised_job(ctx, spec, sup);
    std::cout << "fleet: " << result.workers_started << " workers, "
              << result.workers_restarted << " restarts, "
              << result.failed_slots << " abandoned slots\n"
              << "merge: " << result.merge.summary() << "\n";
    if (args.get_bool("verbose")) {
      std::cout << "job dir: " << sup.job_dir << " (config hash " << std::hex
                << result.merge.report.config_hash << std::dec << ")\n";
    }
    return result.merge.clean() ? 0 : 2;
  }

  shard::CampaignSetup campaign = shard::make_campaign(ctx, spec);
  core::CampaignOptions& opt = campaign.options;
  opt.manifest_path = args.get_string("manifest", "");
  opt.execution = resolve_execution(args);

  if (args.get_bool("compare")) {
    pdn::StackupConfig stacked = cfg;
    stacked.topology = pdn::PdnTopology::VoltageStacked;
    pdn::StackupConfig regular = cfg;
    regular.topology = pdn::PdnTopology::Regular3d;
    const auto table = core::compare_survivability(
        ctx, stacked, regular, campaign.activities, opt);
    std::cout << "stacked vs regular-3D transient survivability ("
              << spec.trials << " trials, seed " << spec.seed << "):\n"
              << table.format();
    return 0;
  }

  const core::CampaignRunner runner(ctx, cfg);
  const auto report = runner.run(campaign.activities, opt);

  TextTable t({"Scenario", "Outcome", "Detected", "Worst", "Final",
               "Attempts", "Source"});
  for (const auto& s : report.scenarios) {
    t.add_row({s.label, pdn::to_string(s.outcome),
               s.detected_at >= 0.0
                   ? TextTable::num(s.detected_at * 1e9, 1) + " ns"
                   : "-",
               TextTable::percent(s.worst_droop, 2),
               TextTable::percent(s.final_droop, 2),
               std::to_string(s.attempts),
               s.from_checkpoint ? "manifest" : "run"});
  }
  t.print(std::cout);
  std::cout << "\nsummary: " << report.summary() << "\n";
  if (args.get_bool("verbose") && !opt.manifest_path.empty()) {
    std::cout << "manifest: " << opt.manifest_path << " (config hash "
              << std::hex << report.config_hash << std::dec << ")\n";
  }

  for (const auto& s : report.scenarios) {
    if (!s.completed) return 2;  // a scenario truncated / timed out
  }
  return 0;
}

const char* outcome_name(core::CaseOutcome outcome) {
  switch (outcome) {
    case core::CaseOutcome::Survivable: return "survivable";
    case core::CaseOutcome::Degraded:   return "DEGRADED";
    case core::CaseOutcome::Infeasible: return "INFEASIBLE";
  }
  return "?";
}

/// The closing lines of both contingency routes: the outcome tally, the
/// worst post-fault deviation against the budget, and each case's
/// diagnostic.  Returns the exit code: 3 when a case is infeasible.
int print_contingency_summary(const core::ContingencyReport& report,
                              double noise_budget_fraction) {
  std::cout << "\nsummary: " << report.survivable << " survivable, "
            << report.degraded << " degraded, " << report.infeasible
            << " infeasible; worst post-fault deviation "
            << TextTable::percent(report.worst_post_fault_deviation, 2)
            << " (budget " << TextTable::percent(noise_budget_fraction, 0)
            << ")\n";
  for (const auto& c : report.cases) {
    if (!c.diagnostic.empty()) {
      std::cout << "  " << c.label << ": " << c.diagnostic << "\n";
    }
  }
  return report.infeasible > 0 ? 3 : 0;
}

int cmd_contingency(const core::StudyContext& ctx, const CliArgs& args) {
  if (args.has("netlist")) return cmd_contingency_netlist(args);
  const auto cfg = resolve_config(ctx, args);
  const double imbalance = args.get_double("imbalance", 0.5);
  const auto acts =
      power::interleaved_layer_activities(cfg.layer_count, imbalance);

  core::ContingencyOptions opts;
  opts.top_k = args.get_size("top", opts.top_k);
  opts.exhaustive = args.get_bool("exhaustive");
  opts.noise_budget_fraction = args.get_double("budget",
                                               opts.noise_budget_fraction);
  opts.trials = args.get_size("trials", opts.trials);
  opts.faults_per_trial = args.get_size("faults", opts.faults_per_trial);
  opts.seed = args.get_size("seed", opts.seed);
  opts.execution = resolve_execution(args);

  const core::ContingencyEngine engine(ctx, cfg);
  const bool monte_carlo = args.get_bool("mc");
  const auto report = monte_carlo ? engine.run_monte_carlo(acts, opts)
                                  : engine.run_n_minus_1(acts, opts);

  std::cout << "EM risk ranking (top "
            << std::min<std::size_t>(opts.top_k, report.ranking.size())
            << " of " << report.ranking.size() << " candidate groups):\n";
  TextTable rank({"Group", "Count", "Hot I (mA)", "P(fail)"});
  for (std::size_t k = 0;
       k < std::min<std::size_t>(opts.top_k, report.ranking.size()); ++k) {
    const auto& e = report.ranking[k];
    rank.add_row({std::string(pdn::conductor_kind_name(e.kind)) + "#" +
                      std::to_string(e.conductor_index),
                  std::to_string(e.count),
                  TextTable::num(e.unit_current * 1e3, 2),
                  TextTable::num(e.failure_probability, 4)});
  }
  rank.print(std::cout);

  std::cout << "\n" << (monte_carlo ? "Monte Carlo N-k" : "N-1") << " campaign ("
            << report.cases.size() << " cases, baseline deviation "
            << TextTable::percent(report.base_max_node_deviation_fraction, 2)
            << "):\n";
  TextTable cases({"Case", "Outcome", "Deviation", "Conv I (mA)", "Attempts"});
  for (const auto& c : report.cases) {
    cases.add_row({c.label, outcome_name(c.outcome),
                   c.solved
                       ? TextTable::percent(c.max_node_deviation_fraction, 2)
                       : "-",
                   c.solved ? TextTable::num(c.max_converter_current * 1e3, 1)
                            : "-",
                   std::to_string(c.solve_attempts)});
  }
  cases.print(std::cout);
  return print_contingency_summary(report, opts.noise_budget_fraction);
}

int cmd_serve(const core::StudyContext& ctx, const CliArgs& args) {
  service::ServerOptions opt;
  opt.root = args.get_string("spool", "");
  VS_REQUIRE(!opt.root.empty(), "serve requires --spool=DIR");
  opt.poll_interval_s = args.get_double("poll", opt.poll_interval_s);
  opt.health_interval_s =
      args.get_double("health-interval", opt.health_interval_s);
  opt.max_requests = args.get_size("max-requests", 0);
  opt.idle_exit_s = args.get_double("idle-exit", 0.0);
  opt.default_deadline_s = args.get_double("deadline", 0.0);
  opt.retry.max_attempts = args.get_size("retries", opt.retry.max_attempts);
  opt.retry.initial_backoff_s =
      args.get_double("backoff", opt.retry.initial_backoff_s);
  opt.admission.max_queue_depth =
      args.get_size("queue", opt.admission.max_queue_depth);
  opt.admission.degrade_trial_divisor =
      args.get_size("degrade-divisor", opt.admission.degrade_trial_divisor);
  opt.execution = resolve_execution(args);
  opt.stop = shutdown_token();
  opt.shard_workers = args.get_size("shard-workers", 0);
  if (opt.shard_workers > 0) opt.worker_command = {self_exe_path()};

  std::cout << "serving spool " << opt.root << " (queue bound "
            << opt.admission.max_queue_depth << ", "
            << opt.retry.max_attempts << " attempts/request";
  if (opt.default_deadline_s > 0.0) {
    std::cout << ", default deadline " << opt.default_deadline_s << " s";
  }
  if (opt.shard_workers > 0) {
    std::cout << ", campaigns on a " << opt.shard_workers
              << "-process shard fleet";
  }
  std::cout << ")\n";

  service::SpoolServer server(ctx, opt);
  const service::ServerStats stats = server.run();
  std::cout << "serve: " << stats.summary() << "\n";
  return 0;  // main() maps a pending shutdown signal onto exit code 4
}

int cmd_worker(const core::StudyContext& ctx, const CliArgs& args) {
  shard::WorkerOptions opt;
  opt.job_dir = args.get_string("job-dir", "");
  VS_REQUIRE(!opt.job_dir.empty(), "worker requires --job-dir=DIR");
  opt.worker_id = args.get_string("worker-id", "");
  VS_REQUIRE(!opt.worker_id.empty(), "worker requires --worker-id=ID");
  opt.jobs = args.get_size("jobs", 1);
  opt.stop = shutdown_token();

  const shard::WorkerReport report = shard::run_worker(ctx, opt);
  std::cout << "worker " << opt.worker_id << ": " << report.chunks_completed
            << " chunks completed (" << report.trials_evaluated
            << " trials), " << report.chunks_quarantined << " quarantined"
            << (report.stopped_early ? "; stopped early" : "") << "\n";
  return 0;  // main() maps a pending shutdown signal onto exit code 4
}

int cmd_chaos_explore(const CliArgs& args) {
  chaos::ExplorerOptions opt;
  opt.work_dir = args.get_string("work-dir", "");
  VS_REQUIRE(!opt.work_dir.empty(), "chaos-explore requires --work-dir=DIR");
  opt.cli_path = args.get_string("cli", self_exe_path());
  opt.workload = args.get_string("workload", opt.workload);
  opt.mode = args.get_string("mode", opt.mode);
  opt.max_hits = args.get_size("max-hits", opt.max_hits);
  opt.max_schedules = args.get_size("max-schedules", opt.max_schedules);
  if (args.has("errnos")) {
    opt.errnos.clear();
    std::istringstream iss(args.get_string("errnos", ""));
    std::string e;
    while (std::getline(iss, e, ',')) {
      if (!e.empty()) opt.errnos.push_back(e);
    }
    VS_REQUIRE(!opt.errnos.empty(), "--errnos needs a comma-separated list");
  }
  opt.out = &std::cout;
  VS_REQUIRE(failpoint::compiled_in(),
             "this binary was built with -DVSTACK_FAILPOINTS=OFF; the "
             "explorer has nothing to inject");

  const chaos::ExplorerReport report = chaos::run_explorer(opt);
  std::cout << "chaos-explore: " << report.summary() << "\n";
  for (const auto& s : report.schedules) {
    if (!s.passed) {
      std::cout << "  FAILED: " << s.workload << " " << s.point << "@"
                << s.hit << " " << s.action << ": " << s.detail << "\n";
    }
  }
  // --min-schedules guards against silent coverage collapse (a refactor
  // that de-instruments a protocol would otherwise pass with 0 schedules).
  const std::size_t min_fired = args.get_size("min-schedules", 0);
  if (report.fired() < min_fired) {
    std::cout << "chaos-explore: only " << report.fired()
              << " schedules fired (--min-schedules=" << min_fired << ")\n";
    return 2;
  }
  return report.ok() ? 0 : 2;
}

int cmd_merge(const core::StudyContext& ctx, const CliArgs& args) {
  const std::string job_dir = args.get_string("job-dir", "");
  VS_REQUIRE(!job_dir.empty(), "merge requires --job-dir=DIR");
  const shard::MergeReport merge =
      shard::merge_job(ctx, job_dir, args.get_string("out", ""));
  std::cout << "merge: " << merge.summary() << "\n";
  return merge.clean() ? 0 : 2;
}

int cmd_spice(const CliArgs& args) {
  VS_REQUIRE(args.positionals().size() >= 2,
             "usage: vstack_cli spice FILE");
  const auto circuit = circuit::parse_spice(
      read_file(args.positionals()[1]), args.positionals()[1]);
  VS_REQUIRE(circuit.has_tran, "netlist needs a .tran card");
  circuit::TransientSimulator sim(circuit.netlist, circuit.clock_period);
  const auto result = sim.run(circuit.tran);
  std::cout << "transient: " << result.report.summary() << "\n";
  if (args.get_bool("verbose")) print_trail(result.report);
  if (!result.ok()) {
    std::cout << "warning: waveform truncated; statistics cover the "
                 "simulated prefix only\n";
  }
  const double settle =
      0.75 * (result.ok() ? circuit.tran.stop_time : result.report.end_time);
  TextTable t({"Node", "Avg (V)"});
  for (const auto& [name, node] : circuit.node_by_name) {
    t.add_row({name,
               TextTable::num(result.average_node_voltage(node, settle), 4)});
  }
  t.print(std::cout);
  return result.ok() ? 0 : 2;
}

/// Companion `.solution` path of a netlist: extension swapped (or
/// appended) -- the benchmarks ship `ibmpg1.spice` + `ibmpg1.solution`.
std::string default_solution_path(const std::string& netlist_path) {
  const std::size_t slash = netlist_path.find_last_of('/');
  const std::size_t dot = netlist_path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return netlist_path + ".solution";
  }
  return netlist_path.substr(0, dot) + ".solution";
}

pgio::GridSolveOptions pgio_solve_options(const CliArgs& args) {
  pgio::GridSolveOptions solve;
  solve.iterative.deadline = shutdown_token();
  solve.iterative.relative_tolerance =
      args.get_double("rel-tol", solve.iterative.relative_tolerance);
  return solve;
}

int cmd_import(const CliArgs& args) {
  VS_REQUIRE(args.positionals().size() >= 2,
             "usage: vstack_cli import FILE [--solve] [--dump=OUT]");
  const std::string path = args.positionals()[1];
  const pgio::PgNetlist netlist = pgio::read_netlist_file(path);

  TextTable t({"Metric", "Value"});
  if (!netlist.title.empty()) t.add_row({"title", netlist.title});
  t.add_row({"lines", std::to_string(netlist.line_count)});
  t.add_row({"nodes", std::to_string(netlist.node_count())});
  t.add_row({"resistors", std::to_string(netlist.resistors.size())});
  t.add_row({"shorts/vias", std::to_string(netlist.shorts.size())});
  t.add_row({"pads", std::to_string(netlist.pads.size())});
  t.add_row({"loads", std::to_string(netlist.loads.size())});
  t.add_row({"decaps", std::to_string(netlist.caps.size())});
  const auto nets = netlist.net_potentials();
  std::string net_desc;
  for (const double v : nets) {
    if (!net_desc.empty()) net_desc += ", ";
    net_desc += TextTable::num(v, 3) + " V";
  }
  t.add_row({"nets", nets.empty() ? "(none)" : net_desc});
  const auto hist = pgio::layer_histogram(netlist);
  std::size_t named_layers = 0;
  for (std::size_t l = 1; l < hist.size(); ++l) named_layers += hist[l] > 0;
  t.add_row({"metal layers", std::to_string(named_layers) +
                                 (hist[0] > 0 ? " (+" + std::to_string(hist[0]) +
                                                    " unnamed nodes)"
                                              : "")});

  const pgio::ImportedGrid grid(netlist);
  t.add_row({"slots", std::to_string(grid.slot_count()) + " (" +
                          std::to_string(grid.unknown_count()) + " unknown, " +
                          std::to_string(grid.fixed_count()) + " fixed)"});
  t.print(std::cout);

  int code = 0;
  if (args.get_bool("solve")) {
    const pgio::GridSolution sol = grid.solve(pgio_solve_options(args));
    std::cout << "\nDC operating point:\n";
    TextTable s({"Metric", "Value"});
    if (sol.solve_ok) {
      s.add_row({"max deviation",
                 TextTable::num(sol.max_deviation_v * 1e3, 3) + " mV (" +
                     TextTable::percent(sol.max_deviation_fraction, 2) +
                     (sol.worst_node.empty() ? ")"
                                             : ") at " + sol.worst_node)});
      s.add_row({"supply current",
                 TextTable::num(sol.supply_current_a, 3) + " A"});
      s.add_row({"load current", TextTable::num(sol.load_current_a, 3) + " A"});
      if (sol.floating_islands > 0) {
        s.add_row({"floating", std::to_string(sol.floating_islands) +
                                   " islands / " +
                                   std::to_string(sol.floating_nodes) +
                                   " nodes"});
      }
    } else {
      s.add_row({"solve", "FAILED: " + sol.diagnostic});
      code = 2;
    }
    s.print(std::cout);
    if (args.get_bool("verbose")) {
      for (const auto& a : sol.report.attempts) {
        std::cout << "  attempt " << a.method << ": "
                  << (a.converged ? "converged" : "failed") << " after "
                  << a.iterations << " iterations\n";
      }
    }
  }
  if (args.has("dump")) {
    const std::string out = args.get_string("dump", "");
    pgio::write_netlist_file(netlist, out);
    std::cout << "\nnormalized netlist written to " << out << "\n";
  }
  return code;
}

int cmd_validate(const CliArgs& args) {
  VS_REQUIRE(args.positionals().size() >= 2,
             "usage: vstack_cli validate FILE [--solution=F] [--tol=V]");
  const std::string path = args.positionals()[1];
  const std::string solution_path =
      args.get_string("solution", default_solution_path(path));

  const pgio::PgNetlist netlist = pgio::read_netlist_file(path);
  const pgio::GoldenSolution golden = pgio::read_solution_file(solution_path);
  const pgio::ImportedGrid grid(netlist);

  pgio::ValidateOptions options;
  options.solve = pgio_solve_options(args);
  options.tolerance_v = args.get_double("tol", options.tolerance_v);

  const pgio::ValidationReport report = pgio::validate(grid, golden, options);
  std::cout << "validate " << path << " vs " << solution_path << " ("
            << golden.size() << " golden nodes):\n"
            << report.format();
  for (const auto& b : report.backends) {
    if (!b.solve_ok) return 2;  // numerics never converged: no verdict
  }
  return report.pass() ? 0 : 3;
}

/// `contingency --netlist=FILE`: the imported-grid campaign route.
int cmd_contingency_netlist(const CliArgs& args) {
  const std::string path = args.get_string("netlist", "");
  const pgio::PgNetlist netlist = pgio::read_netlist_file(path);
  const pgio::ImportedGrid grid(netlist);

  pgio::GridCampaignOptions opts;
  opts.top_k = args.get_size("top", opts.top_k);
  opts.exhaustive = args.get_bool("exhaustive");
  opts.noise_budget_fraction =
      args.get_double("budget", opts.noise_budget_fraction);
  opts.trials = args.get_size("trials", opts.trials);
  opts.faults_per_trial = args.get_size("faults", opts.faults_per_trial);
  opts.leakage_faults_per_trial =
      args.get_size("leakage", opts.leakage_faults_per_trial);
  opts.seed = args.get_size("seed", opts.seed);
  opts.solve = pgio_solve_options(args);
  opts.execution = resolve_execution(args);

  const bool monte_carlo = args.get_bool("mc");
  const auto report = monte_carlo ? pgio::run_monte_carlo(grid, opts)
                                  : pgio::run_n_minus_1(grid, opts);
  if (report.planned == 0 && report.cases.empty()) {
    std::cout << "baseline DC solve failed; no campaign to run\n";
    return 2;
  }

  std::cout << "current-stress ranking (top "
            << std::min<std::size_t>(opts.top_k, report.ranking.size())
            << " of " << grid.conductors().size() << " conductors):\n";
  TextTable rank({"Conductor", "Nodes", "I (mA)", "Share"});
  for (std::size_t k = 0;
       k < std::min<std::size_t>(opts.top_k, report.ranking.size()); ++k) {
    const auto& e = report.ranking[k];
    const auto& c = grid.conductors()[e.conductor_index];
    rank.add_row({"R#" + std::to_string(e.conductor_index),
                  std::string(grid.slot_name(c.node_a)) + " - " +
                      std::string(grid.slot_name(c.node_b)),
                  TextTable::num(e.unit_current * 1e3, 2),
                  TextTable::percent(e.failure_probability, 2)});
  }
  rank.print(std::cout);

  std::cout << "\n" << (monte_carlo ? "Monte Carlo N-k" : "N-1")
            << " campaign (" << report.cases.size()
            << " cases, baseline deviation "
            << TextTable::percent(report.base_max_node_deviation_fraction, 2)
            << "):\n";
  TextTable cases({"Case", "Outcome", "Deviation", "Attempts"});
  for (const auto& c : report.cases) {
    cases.add_row({c.label, outcome_name(c.outcome),
                   c.solved
                       ? TextTable::percent(c.max_node_deviation_fraction, 2)
                       : "-",
                   std::to_string(c.solve_attempts)});
  }
  cases.print(std::cout);
  return print_contingency_summary(report, opts.noise_budget_fraction);
}

/// `ride-through --netlist=FILE`: load-step transient on an imported grid.
int cmd_ride_through_netlist(const CliArgs& args) {
  const std::string path = args.get_string("netlist", "");
  const pgio::PgNetlist netlist = pgio::read_netlist_file(path);
  const pgio::ImportedGrid grid(netlist);

  pgio::LoadStepOptions opt;
  opt.step_scale = args.get_double("step-scale", opt.step_scale);
  opt.duration_s = args.get_double("duration", opt.duration_s);
  opt.dt_s = args.get_double("dt", opt.dt_s);
  opt.solve = pgio_solve_options(args);

  std::cout << "load step: x" << TextTable::num(opt.step_scale, 2) << " at t=0, "
            << TextTable::num(opt.duration_s * 1e9, 1) << " ns window, dt "
            << TextTable::num(opt.dt_s * 1e9, 2) << " ns\n";
  const pgio::LoadStepReport r = pgio::simulate_load_step(grid, opt);
  if (!r.solve_ok) {
    std::cout << "transient FAILED: " << r.diagnostic << "\n";
    return 2;
  }
  TextTable t({"Metric", "Value"});
  t.add_row({"steps", std::to_string(r.steps)});
  t.add_row({"pre-step deviation",
             TextTable::num(r.pre_step_deviation_v * 1e3, 3) + " mV"});
  t.add_row({"post-step deviation",
             TextTable::num(r.post_step_deviation_v * 1e3, 3) + " mV"});
  t.add_row({"worst transient deviation",
             TextTable::num(r.worst_deviation_v * 1e3, 3) + " mV"});
  t.add_row({"worst droop vs pre-step",
             TextTable::num(r.worst_droop_v * 1e3, 3) + " mV"});
  t.add_row({"recovered",
             r.recovered
                 ? TextTable::num(r.recovery_time_s * 1e9, 1) + " ns"
                 : "NO (final error " +
                       TextTable::num(r.final_error_v * 1e3, 3) + " mV)"});
  t.print(std::cout);
  return r.recovered ? 0 : 3;
}

int cmd_version() {
  const auto& info = telemetry::build_info();
  std::string backends;
  for (const la::Backend* b : la::all_backends()) {
    if (!backends.empty()) backends += ", ";
    backends += b->name();
  }
  std::cout << telemetry::build_summary() << "\n"
            << "  version:    " << info.version << "\n"
            << "  build type: " << info.build_type << "\n"
            << "  sanitizer:  " << info.sanitizer << "\n"
            << "  telemetry:  " << (info.telemetry_enabled ? "on" : "off")
            << "\n"
            << "  failpoints: " << (failpoint::compiled_in() ? "on" : "off")
            << "\n"
            << "  la backends: " << backends
            << " (default: " << la::default_backend().name() << ")\n";
  return 0;
}

void usage() {
  std::cout <<
      "usage: vstack_cli <command> [options]\n"
      "  noise       voltage-noise analysis   (--layers --topology "
      "--imbalance --converters --config --map --grid)\n"
      "  em          EM lifetime analysis     (--layers --topology --config)\n"
      "  efficiency  system power efficiency  (--layers --converters "
      "--imbalance)\n"
      "  thermal     stack temperature        (--layers --sink)\n"
      "  contingency fault-injection campaign (--top --exhaustive --mc "
      "--trials --faults --seed --budget --layers --grid --config --jobs)\n"
      "  ride-through live fault ride-through  (--fault-level --fault-time "
      "--keep --duration --imbalance --layers --grid --verbose)\n"
      "  campaign    transient N-k campaign   (--trials --faults "
      "--conv-faults --seed --manifest --compare --timeout --retries "
      "--duration --fault-time --verbose --jobs); add --shards=N "
      "--job-dir=DIR for a crash-tolerant multi-process fleet (--chunk "
      "--max-attempts --lease-expiry --heartbeat --max-restarts); see "
      "docs/distributed_campaigns.md\n"
      "  sweep       paper figure sweeps      (--figure=5a|5b|6|7|8 --jobs)\n"
      "  report      one-command reproduction of every figure (--jobs)\n"
      "  serve       resilient campaign service (--spool=DIR --poll "
      "--health-interval --max-requests --idle-exit --deadline --retries "
      "--backoff --queue --degrade-divisor --jobs --shard-workers=N); see "
      "docs/service_mode.md\n"
      "  worker      shard worker process     (--job-dir --worker-id "
      "--jobs); normally spawned by campaign --shards or serve\n"
      "  merge       fold shard manifests     (--job-dir --out); exit 2 "
      "when trials are quarantined or missing\n"
      "  chaos-explore  exhaustive crash-schedule explorer (--work-dir=DIR "
      "--workload=shard|serve|both --mode=crash|err|both --max-hits "
      "--max-schedules --errnos=EIO,ENOSPC --min-schedules --cli=PATH); "
      "see docs/chaos_testing.md\n"
      "  spice FILE  run a SPICE-subset netlist (--verbose)\n"
      "  import FILE ingest an IBM-power-grid benchmark netlist (--solve "
      "--dump=OUT --rel-tol --verbose); see docs/benchmark_ingestion.md\n"
      "  validate FILE  cross-check a benchmark netlist against its golden "
      "voltages (--solution=F --tol=V --rel-tol); runs every linear-algebra "
      "backend; exit 3 over tolerance, 2 on solver failure\n"
      "  contingency --netlist=FILE  run the fault campaign on an imported "
      "benchmark grid (--top --exhaustive --mc --trials --faults --leakage "
      "--seed --budget --jobs)\n"
      "  ride-through --netlist=FILE  load-step transient on an imported "
      "grid (--step-scale --duration --dt)\n"
      "  config      echo the resolved configuration (--config ...)\n"
      "  version     print build provenance (git describe, build type, "
      "sanitizer, telemetry)\n"
      "exit codes: 0 ok; 1 usage error; 2 truncated/incomplete result; "
      "3 Lost/Infeasible outcome; 4 interrupted by SIGINT/SIGTERM (partial "
      "results committed)\n"
      "--jobs=N sets worker threads for multi-scenario commands (default: "
      "auto via VSTACK_JOBS env or hardware concurrency; results are "
      "independent of N)\n"
      "--metrics=PATH writes a telemetry metrics snapshot (counters, "
      "histograms) after the command; --trace=PATH writes Chrome "
      "trace_event JSON (open in Perfetto).  See docs/telemetry.md\n"
      "--la-backend=reference|optimized selects the linear-algebra kernel "
      "backend for every solve in this process (and spawned shard workers); "
      "default: reference (bit-identical baseline), or VSTACK_LA_BACKEND.  "
      "See docs/linear_algebra.md\n";
}

/// Write --metrics / --trace artifacts after the command ran.  Failures
/// here must not rewrite a successful analysis into exit code 1.
void write_telemetry_sinks(const CliArgs& args) {
  try {
    if (args.has("metrics")) {
      telemetry::write_metrics_file(args.get_string("metrics", ""));
    }
    if (args.has("trace")) {
      telemetry::write_trace_file(args.get_string("trace", ""));
    }
  } catch (const std::exception& e) {
    std::cerr << "warning: telemetry export failed: " << e.what() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"config", "layers", "topology", "imbalance",
                        "converters", "map", "grid", "figure", "sink", "top",
                        "exhaustive", "mc", "trials", "faults", "seed",
                        "budget", "verbose", "duration", "fault-time",
                        "fault-level", "keep", "manifest", "compare",
                        "timeout", "retries", "conv-faults", "jobs",
                        "metrics", "trace", "version", "spool", "poll",
                        "health-interval", "max-requests", "idle-exit",
                        "deadline", "backoff", "queue", "degrade-divisor",
                        "shards", "job-dir", "worker-id", "chunk",
                        "max-attempts", "lease-expiry", "heartbeat",
                        "max-restarts", "out", "shard-workers", "work-dir",
                        "cli", "workload", "mode", "max-hits",
                        "max-schedules", "errnos", "min-schedules",
                        "la-backend", "netlist", "solution", "dump", "tol",
                        "rel-tol", "solve", "step-scale", "dt", "leakage"});
    // Backend selection must precede any solve (and cmd_version's default
    // report).  The env var is set too, so shard worker processes spawned
    // by campaign --shards / serve inherit the choice.
    if (args.has("la-backend")) {
      const std::string backend = args.get_string("la-backend", "reference");
      la::set_default_backend(backend);  // throws on unknown names
      setenv("VSTACK_LA_BACKEND", backend.c_str(), 1);
    }
    const auto ctx = core::StudyContext::paper_defaults();
    const std::string cmd = args.subcommand();
    if (cmd == "version" || args.get_bool("version")) return cmd_version();
    // Span recording costs a little per scope, so the tracer only runs when
    // a trace sink was requested; counters are always on.
    if (args.has("trace")) telemetry::set_tracing_enabled(true);
    // Long-running multi-scenario commands get graceful SIGINT/SIGTERM:
    // the handler cancels shutdown_token(), the runners stop at the next
    // chunk boundary with the committed prefix (and manifest) intact, and
    // the command exits with code 4.  Short analyses keep the default
    // die-on-signal behavior.
    const bool cancellable = cmd == "campaign" || cmd == "contingency" ||
                             cmd == "sweep" || cmd == "report" ||
                             cmd == "serve" || cmd == "worker" ||
                             cmd == "merge";
    if (cancellable) install_shutdown_handlers();
    int code = 1;
    if (cmd == "noise") code = cmd_noise(ctx, args);
    else if (cmd == "contingency") code = cmd_contingency(ctx, args);
    else if (cmd == "ride-through") code = cmd_ride_through(ctx, args);
    else if (cmd == "campaign") code = cmd_campaign(ctx, args);
    else if (cmd == "em") code = cmd_em(ctx, args);
    else if (cmd == "efficiency") code = cmd_efficiency(ctx, args);
    else if (cmd == "thermal") code = cmd_thermal(ctx, args);
    else if (cmd == "sweep") code = cmd_sweep(ctx, args);
    else if (cmd == "report") code = cmd_report(ctx, args);
    else if (cmd == "serve") code = cmd_serve(ctx, args);
    else if (cmd == "worker") code = cmd_worker(ctx, args);
    else if (cmd == "merge") code = cmd_merge(ctx, args);
    else if (cmd == "chaos-explore") code = cmd_chaos_explore(args);
    else if (cmd == "spice") code = cmd_spice(args);
    else if (cmd == "import") code = cmd_import(args);
    else if (cmd == "validate") code = cmd_validate(args);
    else if (cmd == "config") {
      std::cout << pdn::write_stackup_config(resolve_config(ctx, args));
      code = 0;
    } else {
      usage();
      return cmd.empty() ? 0 : 1;
    }
    write_telemetry_sinks(args);
    if (shutdown_requested()) {
      std::cerr << "interrupted by signal " << shutdown_signal()
                << "; partial results committed\n";
      return kInterruptExitCode;
    }
    return code;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
