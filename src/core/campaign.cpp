#include "core/campaign.h"

#include <cmath>
#include <map>
#include <sstream>

#include "common/durable_file.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/campaign_manifest.h"
#include "telemetry/telemetry.h"

namespace vstack::core {

namespace {

std::string manifest_with_suffix(const std::string& path,
                                 const std::string& suffix) {
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

}  // namespace

void CampaignOptions::validate() const {
  ride_through.validate();
  VS_REQUIRE(contingency.trials > 0, "campaign needs at least one trial");
  VS_REQUIRE(std::isfinite(fault_time) && fault_time >= 0.0 &&
                 fault_time < ride_through.transient.duration,
             "fault_time must lie inside the transient horizon");
  VS_REQUIRE(std::isfinite(scenario_timeout_s) && scenario_timeout_s >= 0.0,
             "scenario_timeout_s must be >= 0");
  VS_REQUIRE(max_retries <= 8, "max_retries is bounded (<= 8)");
  VS_REQUIRE(retry_tolerance_relax >= 1.0,
             "retry_tolerance_relax must be >= 1");
}

sc::SupervisorConfig calibrated_supervisor_policy() {
  sc::SupervisorConfig sup;
  sup.trip_fraction = 0.10;
  sup.recovery_fraction = 0.08;
  sup.sense_interval = 5e-9;
  sup.detection_latency = 20e-9;
  sup.action_dwell = 60e-9;
  sup.watchdog_timeout = 300e-9;
  return sup;
}

std::string CampaignReport::summary() const {
  std::ostringstream oss;
  oss << scenarios.size() << " scenarios: " << recovered << " recovered, "
      << degraded << " degraded, " << lost << " lost";
  if (timed_out > 0) oss << " (" << timed_out << " timed out)";
  oss << "; worst droop " << worst_droop * 100.0 << "%";
  if (resumed > 0) {
    oss << "; resumed " << resumed << ", evaluated " << evaluated;
  }
  if (cancelled) {
    oss << "; CANCELLED after " << scenarios.size() << "/" << planned
        << " trials (deadline)";
  }
  return oss.str();
}

CampaignRunner::CampaignRunner(const StudyContext& ctx,
                               pdn::StackupConfig config)
    : ctx_(ctx), config_(std::move(config)) {
  config_.validate();
}

CampaignScenarioResult CampaignRunner::evaluate_scenario(
    const PlannedScenario& scenario,
    const std::vector<double>& layer_activities,
    const CampaignOptions& options) const {
  VS_SPAN("core.campaign.scenario");
  static const telemetry::Counter t_scenarios("core.campaign.scenarios");
  static const telemetry::Counter t_retries("core.campaign.retries");
  t_scenarios.add();
  // Fresh model per scenario (same idiom as ContingencyEngine::evaluate_case):
  // PdnModel keeps a warm-start cache across solves, so sharing one model
  // would make each scenario's DC init depend on evaluation ORDER -- fatal
  // for bit-identical checkpoint/resume.
  const pdn::PdnModel model(config_, ctx_.layer_floorplan);
  CampaignScenarioResult result;
  result.index = scenario.index;
  result.label = scenario.label;
  result.scenario_hash = campaign_scenario_hash(scenario, options.fault_time);

  pdn::RideThroughOptions rt = options.ride_through;
  rt.transient.fault_events.clear();
  pdn::TimedFaultEvent ev;
  ev.time = options.fault_time;
  ev.faults = scenario.faults;
  ev.label = scenario.label;
  rt.transient.fault_events.push_back(std::move(ev));
  if (options.scenario_timeout_s > 0.0) {
    rt.transient.control.wall_clock_budget_s = options.scenario_timeout_s;
  }
  // Cancellation reaches INSIDE a scenario: the step controller aborts at
  // the next step boundary and the linear solver at the next iteration
  // poll, so a stuck post-fault solve cannot outlive the deadline.
  rt.transient.control.deadline = options.execution.deadline;
  rt.transient.iterative.deadline = options.execution.deadline;

  pdn::RideThroughResult run;
  std::size_t attempt = 0;
  for (;;) {
    ++attempt;
    run = pdn::simulate_ride_through(model, ctx_.core_model, layer_activities,
                                     rt);
    result.wall_seconds += run.report.transient.wall_seconds;
    if (run.report.ok() || attempt > options.max_retries) break;
    // A deadline truncation is not a numerical failure; retrying with
    // relaxed tolerances would just burn the drain window.
    if (options.execution.deadline.expired()) break;
    // Bounded retry: relax the LTE tolerances and go again.  The wall-clock
    // budget is per attempt, so a timeout cannot compound past
    // (1 + max_retries) * scenario_timeout_s.
    rt.transient.control.rel_tol *= options.retry_tolerance_relax;
    rt.transient.control.abs_tol *= options.retry_tolerance_relax;
  }

  if (attempt > 1) t_retries.add(static_cast<double>(attempt - 1));
  // An incomplete run with the deadline expired is a truncation artifact,
  // not a verdict; a concurrent genuine failure is indistinguishable here,
  // and dropping it is still sound -- the trial just re-runs on resume.
  result.deadline_truncated =
      !run.report.ok() && options.execution.deadline.expired();
  result.attempts = attempt;
  result.completed = run.report.ok();
  result.timed_out =
      run.report.transient.status == sim::TransientStatus::BudgetExhausted;
  result.outcome = run.report.outcome;
  result.detected_at = run.report.detected_at;
  result.recovered_at = run.report.recovered_at;
  result.worst_droop = run.report.worst_droop;
  result.final_droop = run.report.final_droop;
  result.action_count = run.report.actions.size();
  result.shutdown_count = run.report.shutdown_layers.size();
  return result;
}

std::vector<PlannedScenario> CampaignRunner::plan(
    const std::vector<double>& layer_activities,
    const CampaignOptions& options) const {
  options.validate();
  const ContingencyEngine engine(ctx_, config_);
  return engine.plan_monte_carlo(layer_activities, options.contingency);
}

CampaignScenarioResult CampaignRunner::run_scenario(
    const PlannedScenario& scenario,
    const std::vector<double>& layer_activities,
    const CampaignOptions& options) const {
  return evaluate_scenario(scenario, layer_activities, options);
}

CampaignReport CampaignRunner::run(
    const std::vector<double>& layer_activities,
    const CampaignOptions& options) const {
  VS_SPAN("core.campaign.run");
  options.validate();

  const ContingencyEngine engine(ctx_, config_);
  const auto plan =
      engine.plan_monte_carlo(layer_activities, options.contingency);

  CampaignReport report;
  report.config_hash =
      campaign_config_hash(config_, layer_activities, options);

  std::map<std::size_t, CampaignScenarioResult> finished;
  DurableAppender manifest;
  if (!options.manifest_path.empty()) {
    const bool resumed = load_campaign_manifest(
        options.manifest_path, options.contingency.seed,
        options.contingency.trials, report.config_hash, finished);
    if (!resumed) {
      // Publish the header atomically (temp + rename): a torn header is the
      // one torn line resume cannot tolerate -- load_campaign_manifest
      // refuses the whole manifest -- so it must never exist half-written.
      atomic_write_file(options.manifest_path,
                        campaign_manifest_header(options.contingency.seed,
                                                 options.contingency.trials,
                                                 report.config_hash) +
                            "\n");
      // Crash here: a durable header with zero scenario lines -- the next
      // run must resume with 0 finished trials, not refuse the manifest.
      VS_FAILPOINT("manifest.header.after_write");
    }
    // repair_torn_tail: a kill -9 mid-append leaves half a line; without the
    // repair the first resumed append would concatenate onto the fragment,
    // producing garbage AND losing that scenario's record.
    manifest.open(options.manifest_path, /*repair_torn_tail=*/true);
  }

  // Evaluate on the worker pool, commit in trial-index order.  Workers
  // only fill their own results slot (restored scenarios are copied, the
  // rest simulated on a fresh PdnModel); everything order-sensitive --
  // manifest appends, aggregate accumulation, mismatch checks -- happens
  // in the commit callback on this thread, serialized by the pool.
  std::vector<CampaignScenarioResult> results(plan.size());
  report.planned = plan.size();
  bool truncated = false;
  const TaskPool pool(options.execution);
  pool.run_ordered(
      plan.size(),
      [&](std::size_t i) {
        const auto it = finished.find(plan[i].index);
        if (it != finished.end()) {
          results[i] = it->second;  // hash-verified at commit
        } else {
          results[i] = evaluate_scenario(plan[i], layer_activities, options);
        }
      },
      [&](std::size_t i) {
        CampaignScenarioResult& result = results[i];
        // Once one trial is dropped, everything after it drops too:
        // committing trial k+1 without k would break the contiguous-prefix
        // contract the manifest (and resume) depend on.
        if (truncated || result.deadline_truncated) {
          truncated = true;
          return;
        }
        const PlannedScenario& scenario = plan[i];
        const std::uint64_t expect =
            campaign_scenario_hash(scenario, options.fault_time);
        if (result.from_checkpoint) {
          VS_REQUIRE(result.scenario_hash == expect,
                     "campaign manifest entry for " + scenario.label +
                         " does not match the planned scenario (corrupt "
                         "manifest?)");
          ++report.resumed;
        } else {
          ++report.evaluated;
          if (manifest.is_open()) {
            // One write(2) + fsync per committed scenario: kill -9 loses at
            // most the in-flight line (which the read side skips), and the
            // manifest stays a contiguous trial prefix even when workers
            // finish out of order.
            manifest.append_line(campaign_scenario_line(result));
            // Crash here: this trial is committed, its successors are not
            // -- resume must restore exactly the committed prefix.
            VS_FAILPOINT("manifest.commit.after_append");
          }
        }

        // Shared with the shard merge path: fleet aggregates must fold
        // results exactly the way the serial commit path does.
        accumulate_campaign_result(report, result);
      });
  report.cancelled = report.scenarios.size() < plan.size();
  return report;
}

std::string SurvivabilityTable::format() const {
  std::ostringstream oss;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-12s %9s %9s %6s %9s %12s\n",
                "topology", "recovered", "degraded", "lost", "timed-out",
                "worst-droop");
  oss << buf;
  for (const SurvivabilityRow& row : rows) {
    std::snprintf(buf, sizeof(buf), "%-12s %9zu %9zu %6zu %9zu %11.2f%%\n",
                  row.label.c_str(), row.recovered, row.degraded, row.lost,
                  row.timed_out, row.worst_droop * 100.0);
    oss << buf;
  }
  return oss.str();
}

SurvivabilityTable compare_survivability(
    const StudyContext& ctx, const pdn::StackupConfig& stacked,
    const pdn::StackupConfig& regular,
    const std::vector<double>& layer_activities,
    const CampaignOptions& options) {
  SurvivabilityTable table;
  const struct {
    const char* label;
    const pdn::StackupConfig* config;
    const char* suffix;
  } entries[] = {{"stacked", &stacked, "-stacked"},
                 {"regular", &regular, "-regular"}};
  for (const auto& entry : entries) {
    CampaignOptions per_topology = options;
    if (!options.manifest_path.empty()) {
      per_topology.manifest_path =
          manifest_with_suffix(options.manifest_path, entry.suffix);
    }
    const CampaignRunner runner(ctx, *entry.config);
    const CampaignReport report =
        runner.run(layer_activities, per_topology);
    SurvivabilityRow row;
    row.label = entry.label;
    row.recovered = report.recovered;
    row.degraded = report.degraded;
    row.lost = report.lost;
    row.timed_out = report.timed_out;
    row.worst_droop = report.worst_droop;
    table.rows.push_back(std::move(row));
  }
  return table;
}

}  // namespace vstack::core
