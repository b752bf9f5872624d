// Shared adaptive-transient core used by the switch-level circuit engine
// (circuit/transient.h) and the PDN transient solver (pdn/transient.h).
//
// Three pieces live here:
//
//  * StepController -- local-truncation-error driven timestep selection with
//    step rejection, halving, exponential grow-back, exact clamping onto
//    event times (clocked-switch edges, load steps, the stop time), and hard
//    step / wall-clock budgets.  The adaptive engines drive it.
//
//  * FixedGrid -- the uniform grid of the fixed-step engines (circuit and
//    pdn): its step count, the step and wall-clock budgets checked before
//    each step, and the report finalization.  Fixed-step runs do not use
//    StepController; FixedGrid fills the same TransientReport fields and
//    telemetry, so callers read both modes alike.
//
//  * TransientReport -- the structured outcome callers check INSTEAD of
//    catching exceptions: accepted/rejected step counts, dt range, LTE
//    statistics, every recovery/fallback event, and a status that labels
//    truncated results (budget exhaustion, step collapse, solver failure)
//    rather than hanging or propagating NaN.
//
//  * PeriodicEvents + guard helpers -- switch-edge schedules and the
//    NaN/overflow checks every engine runs before committing a step.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/deadline.h"

namespace vstack::sim {

enum class TransientStatus {
  Completed,        // integrated to the requested stop time
  BudgetExhausted,  // step or wall-clock budget hit; result truncated
  StepCollapse,     // dt driven below its floor without an acceptable step
  SolverFailure,    // linear solve unrecoverable after every fallback
};

const char* to_string(TransientStatus status);

/// One recovery-ladder action (gmin fallback, solver escalation, guard
/// rejection...) recorded so a degraded run is visible after the fact.
struct RecoveryEvent {
  double time = 0.0;  // simulation time when it happened [s]
  std::string what;
};

/// Structured outcome of a transient run.  `ok()` is the one-stop check;
/// everything else explains HOW the run went (or how degraded it was).
struct TransientReport {
  TransientStatus status = TransientStatus::Completed;

  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;   // lte + guard + solver rejections
  std::size_t lte_rejections = 0;   // error estimate above tolerance
  std::size_t guard_rejections = 0;  // NaN / overflow guards fired
  std::size_t solver_rejections = 0;  // linear-solve failures retried

  double min_dt = std::numeric_limits<double>::infinity();  // accepted only
  double max_dt = 0.0;
  double last_dt = 0.0;
  double max_accepted_error = 0.0;  // worst normalized LTE that passed
  double end_time = 0.0;            // last accepted time point [s]
  double wall_seconds = 0.0;

  /// Recovery-ladder trail, capped at kMaxEvents (events_dropped counts the
  /// overflow) so a pathological run cannot balloon the report.
  static constexpr std::size_t kMaxEvents = 32;
  std::vector<RecoveryEvent> events;
  std::size_t events_dropped = 0;

  std::string diagnostic;  // nonempty when !ok()

  bool ok() const { return status == TransientStatus::Completed; }
  void record_event(double time, std::string what);

  /// One-line human-readable digest for logs and bench footers.
  std::string summary() const;
};

/// StepController's step-size policy.  Every engine runs these values, so
/// they are constants rather than options.
inline constexpr double kDtGrow = 2.0;    // max growth factor per accepted step
inline constexpr double kDtShrink = 0.1;  // max shrink factor per rejected step
inline constexpr double kDtMargin = 0.8;  // fraction of the LTE-optimal dt taken
/// The dt floor is dt_max * kDtFloorFraction; a rejection below it collapses.
inline constexpr double kDtFloorFraction = 1e-7;
/// Consecutive rejections tolerated before StepCollapse / SolverFailure.
inline constexpr int kMaxConsecutiveRejections = 16;
/// Guard threshold: any |entry| beyond this (or any non-finite entry) in a
/// candidate solution rejects the step.
inline constexpr double kOverflowLimit = 1e12;

struct StepControlOptions {
  /// LTE acceptance: a step passes when the predictor-corrector error,
  /// normalized per state entry by (abs_tol + rel_tol * |value|), is <= 1.
  double rel_tol = 1e-4;
  double abs_tol = 1e-6;

  /// Hard budgets: 0 disables.  `max_steps` counts attempted (accepted +
  /// rejected) steps; on exhaustion the run returns a truncated result with
  /// status BudgetExhausted instead of running away.
  std::size_t max_steps = 2'000'000;
  double wall_clock_budget_s = 0.0;

  /// External cancellation / wall-clock deadline (service requests, Ctrl-C).
  /// Checked at every begin_step alongside the budgets; when it fires the
  /// run truncates with BudgetExhausted exactly like a wall-clock budget,
  /// so existing callers need no new status handling.  Default: unlimited.
  Deadline deadline{};

  void validate() const;
};

/// Timestep state machine.  Usage per step:
///
///   double dt = ctl.begin_step(next_event_time);
///   if (ctl.failed()) break;            // budget / collapse -- truncated
///   ... assemble, solve with dt ...
///   if (guard fails)  { ctl.reject_step(t, "why"); continue; }
///   if (ctl.finish_step(err_norm, order)) { commit state; }
///
/// Rejected steps leave time unchanged, so callers simply do not commit.
class StepController {
 public:
  /// `dt_init`/`dt_max` bound the adaptive step.
  StepController(const StepControlOptions& options, double t_start,
                 double t_end, double dt_init, double dt_max);

  double time() const { return t_; }
  double dt() const { return dt_; }
  bool done() const { return done_; }
  bool failed() const { return failed_; }

  /// Propose the next step, clamped so `next_event` (if inside the step or
  /// within 10% of dt past its end) and t_end are hit exactly.  Pass
  /// infinity when no event is pending.  Checks budgets; on exhaustion sets
  /// failed() and returns 0.
  double begin_step(double next_event);

  /// True when the step proposed by the last begin_step ends on next_event.
  bool ends_on_event() const { return ends_on_event_; }

  /// Accept (err_norm <= 1) or reject the step; `order` is the local order
  /// of the integration method (1 = BE, 2 = trapezoidal) used to scale the
  /// dt update.  Returns whether the step was accepted (time advanced).
  bool finish_step(double err_norm, int order);

  /// Reject for a non-LTE reason (NaN guard, solver failure): halves dt and
  /// counts toward the consecutive-rejection collapse limit.  `kind` is
  /// recorded in the report's event trail.
  void reject_step(const char* kind);

  /// Force the next proposal down to at most `dt` (used after switching
  /// edges where history-based prediction is invalid).
  void reset_dt(double dt);

  TransientReport& report() { return report_; }
  const TransientReport& report() const { return report_; }

  /// Stamp wall_seconds and, if the run ended early without a recorded
  /// failure, finalize the status/diagnostic fields.
  void finalize();

 private:
  void fail(TransientStatus status, const std::string& diagnostic);

  StepControlOptions opts_;
  double t_ = 0.0;
  double t_end_ = 0.0;
  double dt_ = 0.0;
  double dt_max_ = 0.0;
  double dt_floor_ = 0.0;  // dt_max * kDtFloorFraction
  bool done_ = false;
  bool failed_ = false;
  bool ends_on_event_ = false;
  int consecutive_rejections_ = 0;
  std::size_t attempted_steps_ = 0;
  double wall_start_s_ = 0.0;  // monotonic clock at construction
  TransientReport report_;
};

/// Steps of size `h` that cover [0, stop_time]: round(stop_time / h).  A
/// quotient of 2^64 or more saturates to SIZE_MAX instead of being converted;
/// the step budget bounds such a run.
std::size_t fixed_step_count(double stop_time, double h);

/// True when `h` tiles `span`: span / h lies within 1e-6 * max(1, span / h)
/// of an integer.
bool divides_evenly(double span, double h);

/// The uniform grid of a fixed-step run: fixed_step_count(stop_time, h)
/// steps, step k ending at (k + 1) * h, under the step and wall-clock budgets
/// of `options`.  Usage:
///
///   const FixedGrid grid(options, h, stop_time);
///   samples.reserve(grid.reserve());
///   for (std::size_t k = 0; k < grid.steps(); ++k) {
///     const double t = grid.time(k);
///     if (!grid.admit(t, report)) break;   // budget spent -- truncated
///     ... solve, commit, record; ++report.accepted_steps ...
///   }
///   grid.finish(report);
class FixedGrid {
 public:
  /// Stamps the wall-clock start of the run.
  FixedGrid(const StepControlOptions& options, double h, double stop_time);

  std::size_t steps() const { return steps_; }
  /// Samples worth reserving: the step count, capped by the step budget.
  std::size_t reserve() const {
    return opts_.max_steps > 0 ? std::min(steps_, opts_.max_steps) : steps_;
  }
  double time(std::size_t step) const {
    return static_cast<double>(step + 1) * h_;
  }

  /// Budget check before the step ending at `t`.  On an exhausted step
  /// budget (report.accepted_steps steps taken) or wall-clock budget, labels
  /// `report` BudgetExhausted and returns false.
  bool admit(double t, TransientReport& report) const;

  /// Stamp the dt range and wall time into `report` and record its
  /// telemetry.
  void finish(TransientReport& report) const;

 private:
  StepControlOptions opts_;
  double h_ = 0.0;
  std::size_t steps_ = 0;
  double wall_start_s_ = 0.0;
};

/// Max-norm LTE estimate: |value - predicted| normalized per entry by
/// (abs_tol + rel_tol * |value|).  Sizes must match.
double error_norm(const std::vector<double>& value,
                  const std::vector<double>& predicted, double rel_tol,
                  double abs_tol);

/// True when every entry is finite and |entry| <= kOverflowLimit.
bool finite_and_bounded(const std::vector<double>& x);

/// Event schedule of clocked-switch edges: `fractions` are edge positions
/// within one period (in [0, 1)); next_after(t) returns the first edge
/// strictly after t (with a relative snap tolerance so a step that just
/// landed on an edge is not matched again).
class PeriodicEvents {
 public:
  PeriodicEvents() = default;
  PeriodicEvents(double period, std::vector<double> fractions);

  bool empty() const { return fractions_.empty(); }
  double next_after(double t) const;

 private:
  double period_ = 0.0;
  std::vector<double> fractions_;  // sorted, deduped, in [0, 1)
};

/// Unified event timeline for a transient run: any number of periodic edge
/// schedules (clocked switches, supervisor sensing ticks) merged with sorted
/// one-shot instants (load steps, injected fault events).  next_after(t)
/// returns the earliest pending event strictly after t so the step
/// controller can clamp a step boundary exactly onto it; one-shot times use
/// the same relative snap tolerance as PeriodicEvents, scaled by
/// `horizon` (the stop time passed at construction).
class EventSchedule {
 public:
  EventSchedule() = default;
  /// `horizon` scales the snap tolerance for one-shot times (pass the run's
  /// stop time); must be positive.
  explicit EventSchedule(double horizon);

  void add_periodic(PeriodicEvents events);
  /// One-shot event.  Times at or before 0 are accepted but never returned
  /// (they are "already in the past" at the start of the run).
  void add_time(double t);

  bool empty() const { return periodic_.empty() && times_.empty(); }
  double next_after(double t) const;

 private:
  double horizon_ = 1.0;
  std::vector<PeriodicEvents> periodic_;
  std::vector<double> times_;  // sorted
};

}  // namespace vstack::sim
