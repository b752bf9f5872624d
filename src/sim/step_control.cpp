#include "sim/step_control.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace vstack::sim {

using telemetry::monotonic_seconds;

namespace {

/// Record a finished transient run into the telemetry registry: step and
/// rejection counters, recovery events, and a "sim.transient.run" span from
/// `wall_start_seconds` (a monotonic_seconds() stamp) to now.
/// StepController::finalize() and FixedGrid::finish() call this, so both
/// modes report identically.
void record_transient_telemetry(const TransientReport& report,
                                double wall_start_seconds) {
  static const telemetry::Counter t_runs("sim.transient.runs");
  static const telemetry::Counter t_truncated("sim.transient.runs_truncated");
  static const telemetry::Counter t_accepted("sim.transient.accepted_steps");
  static const telemetry::Counter t_rejected("sim.transient.rejected_steps");
  static const telemetry::Counter t_lte("sim.transient.lte_rejections");
  static const telemetry::Counter t_guard("sim.transient.guard_rejections");
  static const telemetry::Counter t_solver("sim.transient.solver_rejections");
  static const telemetry::Counter t_recovery("sim.transient.recovery_events");
  static const telemetry::Histogram t_wall(
      "sim.transient.run_seconds",
      {1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0});

  t_runs.add();
  if (!report.ok()) t_truncated.add();
  t_accepted.add(static_cast<double>(report.accepted_steps));
  t_rejected.add(static_cast<double>(report.rejected_steps));
  t_lte.add(static_cast<double>(report.lte_rejections));
  t_guard.add(static_cast<double>(report.guard_rejections));
  t_solver.add(static_cast<double>(report.solver_rejections));
  t_recovery.add(static_cast<double>(report.events.size() +
                                     report.events_dropped));
  t_wall.record(report.wall_seconds);
  telemetry::record_span("sim.transient.run", wall_start_seconds,
                         wall_start_seconds + report.wall_seconds);
}

}  // namespace

const char* to_string(TransientStatus status) {
  switch (status) {
    case TransientStatus::Completed: return "completed";
    case TransientStatus::BudgetExhausted: return "budget-exhausted";
    case TransientStatus::StepCollapse: return "step-collapse";
    case TransientStatus::SolverFailure: return "solver-failure";
  }
  return "unknown";
}

void TransientReport::record_event(double time, std::string what) {
  if (events.size() >= kMaxEvents) {
    ++events_dropped;
    return;
  }
  events.push_back(RecoveryEvent{time, std::move(what)});
}

std::string TransientReport::summary() const {
  std::ostringstream oss;
  oss << to_string(status) << ": " << accepted_steps << " steps";
  if (rejected_steps > 0) {
    oss << " (+" << rejected_steps << " rejected: " << lte_rejections
        << " lte, " << guard_rejections << " guard, " << solver_rejections
        << " solver)";
  }
  if (accepted_steps > 0) {
    oss << ", dt " << min_dt << ".." << max_dt << " s";
  }
  oss << ", t_end " << end_time << " s";
  if (!events.empty()) {
    oss << ", " << events.size() + events_dropped << " recovery events";
  }
  if (!diagnostic.empty()) oss << " -- " << diagnostic;
  return oss.str();
}

void StepControlOptions::validate() const {
  VS_REQUIRE(rel_tol > 0.0 && abs_tol > 0.0, "LTE tolerances must be positive");
}

StepController::StepController(const StepControlOptions& options,
                               double t_start, double t_end, double dt_init,
                               double dt_max)
    : opts_(options),
      t_(t_start),
      t_end_(t_end),
      dt_max_(dt_max),
      dt_floor_(dt_max * kDtFloorFraction) {
  opts_.validate();
  VS_REQUIRE(t_end > t_start, "t_end must exceed t_start");
  VS_REQUIRE(dt_init > 0.0 && dt_max > 0.0, "timesteps must be positive");
  VS_REQUIRE(dt_init <= dt_max, "dt_init must not exceed dt_max");
  dt_ = std::max(dt_init, dt_floor_);
  wall_start_s_ = monotonic_seconds();
}

void StepController::fail(TransientStatus status,
                          const std::string& diagnostic) {
  failed_ = true;
  report_.status = status;
  report_.diagnostic = diagnostic;
}

double StepController::begin_step(double next_event) {
  if (done_ || failed_) return 0.0;

  if (opts_.max_steps > 0 && attempted_steps_ >= opts_.max_steps) {
    fail(TransientStatus::BudgetExhausted,
         "step budget of " + std::to_string(opts_.max_steps) +
             " attempted steps exhausted at t = " + std::to_string(t_) +
             " s; result truncated");
    return 0.0;
  }
  if (opts_.wall_clock_budget_s > 0.0 &&
      monotonic_seconds() - wall_start_s_ > opts_.wall_clock_budget_s) {
    fail(TransientStatus::BudgetExhausted,
         "wall-clock budget of " + std::to_string(opts_.wall_clock_budget_s) +
             " s exhausted at t = " + std::to_string(t_) +
             " s; result truncated");
    return 0.0;
  }
  if (opts_.deadline.expired()) {
    fail(TransientStatus::BudgetExhausted,
         "deadline expired (cancelled) at t = " + std::to_string(t_) +
             " s; result truncated");
    return 0.0;
  }
  ++attempted_steps_;

  double dt = std::min(dt_, dt_max_);
  ends_on_event_ = false;
  // Clamp onto the stop time and any pending event: land exactly when the
  // step would cross it, and stretch/truncate when the step would end within
  // 10% of dt before it (avoids a follow-up sliver step).
  double target = t_end_;
  bool target_is_event = false;
  if (next_event < target) {
    target = next_event;
    target_is_event = true;
  }
  if (t_ + dt * 1.1 >= target) {
    dt = target - t_;
    ends_on_event_ = target_is_event;
  }
  dt_ = std::max(dt, 0.0);
  return dt_;
}

bool StepController::finish_step(double err_norm, int order) {
  VS_REQUIRE(order >= 1, "integration order must be >= 1");
  const double exponent = 1.0 / (order + 1);
  if (std::isfinite(err_norm) && err_norm <= 1.0) {
    t_ += dt_;
    ++report_.accepted_steps;
    report_.min_dt = std::min(report_.min_dt, dt_);
    report_.max_dt = std::max(report_.max_dt, dt_);
    report_.last_dt = dt_;
    report_.max_accepted_error = std::max(report_.max_accepted_error,
                                          err_norm);
    report_.end_time = t_;
    consecutive_rejections_ = 0;
    if (t_ >= t_end_ - 1e-12 * t_end_) done_ = true;
    // Exponential grow-back; a borderline accept (err near 1) shrinks the
    // next step slightly instead of oscillating between accept and reject.
    double grow = kDtGrow;
    if (err_norm > 0.0) {
      grow = std::min(grow, kDtMargin * std::pow(err_norm, -exponent));
      grow = std::max(grow, kDtShrink);
    }
    dt_ = std::min(dt_ * grow, dt_max_);
    return true;
  }

  ++report_.rejected_steps;
  ++report_.lte_rejections;
  ++consecutive_rejections_;
  double shrink = kDtShrink;
  if (std::isfinite(err_norm) && err_norm > 1.0) {
    shrink = std::max(
        shrink, std::min(0.5, kDtMargin * std::pow(err_norm, -exponent)));
  }
  dt_ *= shrink;
  if (dt_ < dt_floor_ || consecutive_rejections_ > kMaxConsecutiveRejections) {
    fail(TransientStatus::StepCollapse,
         "timestep collapsed below " + std::to_string(dt_floor_) +
             " s at t = " + std::to_string(t_) +
             " s after " + std::to_string(consecutive_rejections_) +
             " consecutive rejections");
  }
  return false;
}

void StepController::reject_step(const char* kind) {
  ++report_.rejected_steps;
  if (std::string(kind).find("guard") != std::string::npos) {
    ++report_.guard_rejections;
  } else {
    ++report_.solver_rejections;
  }
  ++consecutive_rejections_;
  report_.record_event(t_, std::string(kind) + " at dt = " +
                               std::to_string(dt_) + " s; step rejected");
  dt_ *= 0.5;
  if (dt_ < dt_floor_ || consecutive_rejections_ > kMaxConsecutiveRejections) {
    fail(TransientStatus::SolverFailure,
         std::string(kind) + " persisted down to dt = " +
             std::to_string(dt_) + " s at t = " + std::to_string(t_) +
             " s; giving up");
  }
}

void StepController::reset_dt(double dt) {
  dt_ = std::min(dt_, std::max(dt, dt_floor_));
}

void StepController::finalize() {
  report_.wall_seconds = monotonic_seconds() - wall_start_s_;
  if (report_.accepted_steps == 0) {
    report_.min_dt = 0.0;
  }
  if (!done_ && !failed_ && report_.status == TransientStatus::Completed) {
    // Loop exited early without recording why (defensive; engines normally
    // run until done() or failed()).
    report_.status = TransientStatus::SolverFailure;
    report_.diagnostic = "run ended before the stop time";
  }
  record_transient_telemetry(report_, wall_start_s_);
}

std::size_t fixed_step_count(double stop_time, double h) {
  const double steps = std::round(stop_time / h);
  return steps < 0x1p64 ? static_cast<std::size_t>(steps)
                        : std::numeric_limits<std::size_t>::max();
}

bool divides_evenly(double span, double h) {
  const double ratio = span / h;
  return std::abs(ratio - std::round(ratio)) <= 1e-6 * std::max(1.0, ratio);
}

FixedGrid::FixedGrid(const StepControlOptions& options, double h,
                     double stop_time)
    : opts_(options),
      h_(h),
      steps_(fixed_step_count(stop_time, h)),
      wall_start_s_(monotonic_seconds()) {}

bool FixedGrid::admit(double t, TransientReport& report) const {
  if (opts_.max_steps > 0 && report.accepted_steps >= opts_.max_steps) {
    report.status = TransientStatus::BudgetExhausted;
    report.diagnostic = "step budget of " + std::to_string(opts_.max_steps) +
                        " exhausted at t = " + std::to_string(t) +
                        " s; result truncated";
    return false;
  }
  if (opts_.wall_clock_budget_s > 0.0 &&
      monotonic_seconds() - wall_start_s_ > opts_.wall_clock_budget_s) {
    report.status = TransientStatus::BudgetExhausted;
    report.diagnostic = "wall-clock budget exhausted at t = " +
                        std::to_string(t) + " s; result truncated";
    return false;
  }
  return true;
}

void FixedGrid::finish(TransientReport& report) const {
  report.min_dt = report.accepted_steps == 0 ? 0.0 : h_;
  report.max_dt = report.min_dt;
  report.last_dt = report.min_dt;
  report.wall_seconds = monotonic_seconds() - wall_start_s_;
  record_transient_telemetry(report, wall_start_s_);
}

double error_norm(const std::vector<double>& value,
                  const std::vector<double>& predicted, double rel_tol,
                  double abs_tol) {
  VS_REQUIRE(value.size() == predicted.size(),
             "error_norm size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    const double scale = abs_tol + rel_tol * std::abs(value[i]);
    const double err = std::abs(value[i] - predicted[i]) / scale;
    if (!std::isfinite(err)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, err);
  }
  return worst;
}

bool finite_and_bounded(const std::vector<double>& x) {
  for (const double v : x) {
    if (!std::isfinite(v) || std::abs(v) > kOverflowLimit) return false;
  }
  return true;
}

PeriodicEvents::PeriodicEvents(double period, std::vector<double> fractions)
    : period_(period) {
  VS_REQUIRE(period > 0.0, "event period must be positive");
  for (double& f : fractions) {
    f = f - std::floor(f);  // wrap into [0, 1)
  }
  std::sort(fractions.begin(), fractions.end());
  // Dedupe edges closer than 1e-12 of a period (coincident switch edges).
  for (const double f : fractions) {
    if (fractions_.empty() || f - fractions_.back() > 1e-12) {
      fractions_.push_back(f);
    }
  }
  period_ = period;
}

double PeriodicEvents::next_after(double t) const {
  if (fractions_.empty()) return std::numeric_limits<double>::infinity();
  const double tol = 1e-9 * period_;
  const double base = std::floor(t / period_) * period_;
  for (int cycle = 0; cycle < 3; ++cycle) {
    const double offset = base + static_cast<double>(cycle) * period_;
    for (const double f : fractions_) {
      const double candidate = offset + f * period_;
      if (candidate > t + tol) return candidate;
    }
  }
  VS_FAIL("periodic event search failed to advance");
}

EventSchedule::EventSchedule(double horizon) : horizon_(horizon) {
  VS_REQUIRE(horizon > 0.0, "event-schedule horizon must be positive");
}

void EventSchedule::add_periodic(PeriodicEvents events) {
  if (!events.empty()) periodic_.push_back(std::move(events));
}

void EventSchedule::add_time(double t) {
  VS_REQUIRE(std::isfinite(t), "event time must be finite");
  const auto it = std::lower_bound(times_.begin(), times_.end(), t);
  times_.insert(it, t);
}

double EventSchedule::next_after(double t) const {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& p : periodic_) {
    next = std::min(next, p.next_after(t));
  }
  const double tol = 1e-12 * horizon_;
  const auto it = std::upper_bound(times_.begin(), times_.end(), t + tol);
  if (it != times_.end()) next = std::min(next, *it);
  return next;
}

}  // namespace vstack::sim
