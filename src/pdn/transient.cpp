#include "pdn/transient.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/error.h"
#include "pdn/transient_core.h"
#include "telemetry/telemetry.h"

namespace vstack::pdn {

void PdnTransientOptions::validate() const {
  VS_REQUIRE(decap_density > 0.0, "decap density must be positive");
  VS_REQUIRE(package_inductance > 0.0, "package inductance must be positive");
  VS_REQUIRE(time_step > 0.0, "time step must be positive");
  VS_REQUIRE(duration > time_step, "duration must exceed the time step");
  VS_REQUIRE(step_time >= 0.0 && step_time < duration,
             "step time must lie within the run");
  for (const auto& ev : fault_events) {
    VS_REQUIRE(std::isfinite(ev.time), "fault-event time must be finite");
    VS_REQUIRE(ev.time < duration, "fault-event time must precede the end");
  }
  control.validate();
}

PdnTransientResult simulate_load_step(
    const PdnModel& model, const power::CorePowerModel& core_model,
    const std::vector<double>& activities_before,
    const std::vector<double>& activities_after,
    const PdnTransientOptions& options) {
  VS_SPAN("pdn.transient.load_step");
  options.validate();

  // Private copy of the network: mid-run fault events mutate the topology,
  // and the caller's model (with its DC caches) must stay pristine.
  PdnNetwork net = model.network();
  detail::TransientWorkspace ws(net, options);

  // --- Initial condition: DC solve before the step. --------------------
  std::vector<LoadInjection> live_loads =
      net.build_loads(core_model, activities_before);
  VS_REQUIRE(activities_after.size() == model.config().layer_count,
             "activity vector must match layer count");
  const PdnSolution dc = model.solve(live_loads);

  PdnTransientResult result;
  if (!dc.solve_ok) {
    result.report.status = sim::TransientStatus::SolverFailure;
    result.report.diagnostic =
        "pre-step DC operating point failed: " + dc.diagnostic;
    return result;
  }

  la::Vector x(ws.n(), 0.0);
  ws.init_states(dc, x);

  result.initial_noise = net.max_node_deviation_fraction(x);
  result.peak_noise = result.initial_noise;
  result.peak_time = 0.0;

  // The load step is this route's own, silent entry on the event timeline.
  const TimedFaultEvent load_step{options.step_time, {}, activities_after,
                                  "load step"};
  detail::FaultEventApplier events(
      options.fault_events, net, ws,
      [&](const std::vector<double>& activities) {
        live_loads = net.build_loads(core_model, activities);
      },
      &load_step);

  const auto record_sample = [&](double t, const la::Vector& sol) {
    const double noise = net.max_node_deviation_fraction(sol);
    result.time.push_back(t);
    result.worst_noise.push_back(noise);
    result.supply_current.push_back(ws.supply_inductor_current());
    if (noise > result.peak_noise) {
      result.peak_noise = noise;
      result.peak_time = t;
    }
  };

  if (!options.adaptive) {
    // --- Legacy uniform grid (bit-compatible waveforms when no fault
    // events are scheduled) under the shared guard/budget/report
    // discipline.  Events fire at the first grid point t >= event time,
    // mirroring the historical load-step rule. -----------------------------
    const double h = options.time_step;
    const sim::FixedGrid grid(options.control, h, options.duration);
    result.time.reserve(grid.reserve());
    result.worst_noise.reserve(grid.reserve());
    result.supply_current.reserve(grid.reserve());

    sim::TransientReport& report = result.report;
    detail::StepSolver solver(ws.system(), options);
    la::Vector rhs(ws.n(), 0.0);
    std::string diagnostic;
    for (std::size_t step = 0; step < grid.steps(); ++step) {
      const double t_new = grid.time(step);
      if (!grid.admit(t_new, report)) break;
      events.apply_through(t_new, 0.0, report);
      ws.build_rhs(live_loads, h, /*be=*/false, rhs);
      if (!solver.solve(h, /*be=*/false, rhs, x, t_new, report, diagnostic)) {
        report.status = sim::TransientStatus::SolverFailure;
        report.diagnostic = "transient PDN step failed at t = " +
                            std::to_string(t_new) + " s: " + diagnostic;
        break;
      }
      ws.commit_states(x, h, /*be=*/false);
      record_sample(t_new, x);
      ++report.accepted_steps;
      report.end_time = t_new;
    }
    grid.finish(report);
  } else {
    // --- The shared adaptive loop.  Restart after every step that lands on
    // a scheduled instant -- the load step or a fault event -- and whenever
    // a fault changes the topology, t <= 0 included. -----------------------
    const double event_tol = 1e-12 * options.duration;
    result.report = detail::run_adaptive(
        ws, options, {options.step_time}, {}, live_loads, x,
        [&](double t, bool on_event, sim::TransientReport& report) {
          return events.apply_through(t, event_tol, report) || on_event;
        },
        record_sample);
  }

  result.final_noise =
      result.worst_noise.empty() ? result.initial_noise
                                 : result.worst_noise.back();
  return result;
}

}  // namespace vstack::pdn
