#include "circuit/transient.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace vstack::circuit {

namespace {

/// Fractional part in [0, 1).
double frac(double x) { return x - std::floor(x); }

/// Windowed trapezoidal integral of samples[k] over time[k] >= from_time,
/// divided by the window span (exact time-average for non-uniform steps).
template <typename Sample>
double windowed_average(const std::vector<double>& time, double from_time,
                        const Sample& sample) {
  VS_REQUIRE(!time.empty(), "no samples recorded");
  std::size_t k0 = 0;
  while (k0 < time.size() && time[k0] < from_time) ++k0;
  VS_REQUIRE(k0 < time.size(), "averaging window contains no samples");
  if (k0 + 1 == time.size()) return sample(k0);
  double integral = 0.0;
  for (std::size_t k = k0; k + 1 < time.size(); ++k) {
    integral += 0.5 * (sample(k) + sample(k + 1)) * (time[k + 1] - time[k]);
  }
  return integral / (time.back() - time[k0]);
}

/// Per-(switch pattern, scheme, step) factorization cache key.
struct FactorKey {
  std::vector<bool> pattern;
  bool backward_euler = false;
  std::uint64_t dt_bits = 0;
  bool operator<(const FactorKey& o) const {
    if (backward_euler != o.backward_euler) {
      return backward_euler < o.backward_euler;
    }
    if (dt_bits != o.dt_bits) return dt_bits < o.dt_bits;
    return pattern < o.pattern;
  }
};

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(x));
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

struct Factorization {
  std::unique_ptr<la::DenseLu> lu;
  double gmin_used = 0.0;  // 0 = clean factorization
};

/// Factor the step matrix, escalating through a gmin diagonal shift when the
/// direct factorization reports a singular matrix (a floating subcircuit
/// behind open switches, for example).  Returns lu == nullptr on total
/// failure.
Factorization robust_factor(const MnaSystem& mna,
                            const std::vector<bool>& state,
                            const std::vector<double>& geq,
                            const Netlist& netlist) {
  Factorization out;
  const la::DenseMatrix base = mna.assemble_matrix(state, geq);
  try {
    out.lu = std::make_unique<la::DenseLu>(base);
    return out;
  } catch (const Error&) {
  }
  for (const double gmin : {1e-12, 1e-9, 1e-6}) {
    la::DenseMatrix shifted = base;
    for (NodeId node = 1; node < netlist.node_count(); ++node) {
      const std::size_t i = mna.voltage_index(node);
      shifted(i, i) += gmin;
    }
    try {
      out.lu = std::make_unique<la::DenseLu>(std::move(shifted));
      out.gmin_used = gmin;
      return out;
    } catch (const Error&) {
    }
  }
  return out;
}

/// Clocked states with every switch fault active at `t_eval` overriding its
/// switch.  The first time a fault takes effect it is recorded into the
/// report's event trail (at `t_report`, the step's reporting time).
std::vector<bool> apply_switch_faults(std::vector<bool> state,
                                      const TransientOptions& options,
                                      double t_eval, double t_report,
                                      std::vector<bool>& applied,
                                      sim::TransientReport& report) {
  for (std::size_t i = 0; i < options.switch_faults.size(); ++i) {
    const auto& f = options.switch_faults[i];
    if (t_eval < f.time) continue;
    state[f.switch_index] = f.stuck_on;
    if (!applied[i]) {
      applied[i] = true;
      const std::string label =
          f.label.empty() ? "switch " + std::to_string(f.switch_index)
                          : f.label;
      report.record_event(t_report, "switch fault '" + label + "': drive " +
                                        std::string(f.stuck_on
                                                        ? "stuck on"
                                                        : "stuck off"));
    }
  }
  return state;
}

/// Shared per-run integrator state and sample recording.
struct Engine {
  const Netlist& netlist;
  const MnaSystem mna;
  std::vector<double> cap_voltage;
  std::vector<double> cap_current;
  std::map<FactorKey, Factorization> cache;
  TransientResult result;

  explicit Engine(const Netlist& net) : netlist(net), mna(net) {
    const auto& caps = net.capacitors();
    cap_voltage.resize(caps.size());
    cap_current.assign(caps.size(), 0.0);
    for (std::size_t c = 0; c < caps.size(); ++c) {
      cap_voltage[c] = caps[c].initial_voltage;
    }
  }

  void init_from_dc(const std::vector<bool>& state0) {
    DcSolveReport dc_report;
    const DcSolution dc = dc_solve_robust(netlist, state0, &dc_report);
    if (dc_report.ok) {
      for (std::size_t c = 0; c < netlist.capacitors().size(); ++c) {
        const auto& cap = netlist.capacitors()[c];
        cap_voltage[c] = dc.node_voltages[cap.a] - dc.node_voltages[cap.b];
      }
      if (dc_report.method != "direct") {
        result.report.record_event(
            0.0, "DC initialization recovered via " + dc_report.method);
      }
    } else {
      result.report.record_event(
          0.0, dc_report.diagnostic + "; using netlist initial conditions");
    }
  }

  void companions(bool backward_euler, double h, std::vector<double>& geq,
                  std::vector<double>& ieq) const {
    const auto& caps = netlist.capacitors();
    for (std::size_t c = 0; c < caps.size(); ++c) {
      if (backward_euler) {
        geq[c] = caps[c].capacitance / h;
        ieq[c] = geq[c] * cap_voltage[c];
      } else {
        geq[c] = 2.0 * caps[c].capacitance / h;
        ieq[c] = geq[c] * cap_voltage[c] + cap_current[c];
      }
    }
  }

  /// Factor (through the cache + gmin ladder) and solve one step.  Returns
  /// false when the matrix is unfactorizable even with the ladder.
  bool solve_step(const std::vector<bool>& state, bool backward_euler,
                  double h, const std::vector<double>& geq,
                  const std::vector<double>& ieq, double t, la::Vector& x) {
    if (cache.size() > 256) cache.clear();  // bound adaptive-dt growth
    FactorKey key{state, backward_euler, bits_of(h)};
    auto it = cache.find(key);
    if (it == cache.end()) {
      Factorization f = robust_factor(mna, state, geq, netlist);
      if (f.gmin_used > 0.0) {
        std::ostringstream oss;
        oss << "singular step matrix; factored with gmin shift "
            << f.gmin_used;
        result.report.record_event(t, oss.str());
      }
      it = cache.emplace(std::move(key), std::move(f)).first;
    }
    if (!it->second.lu) return false;
    x = it->second.lu->solve(mna.assemble_rhs(ieq));
    return true;
  }

  void record_sample(double t, const la::Vector& x) {
    result.time.push_back(t);
    la::Vector volts(netlist.node_count(), 0.0);
    for (NodeId nd = 1; nd < netlist.node_count(); ++nd) {
      volts[nd] = mna.node_voltage(x, nd);
    }
    result.node_voltages.push_back(std::move(volts));
    la::Vector src(netlist.voltage_sources().size(), 0.0);
    for (std::size_t v = 0; v < src.size(); ++v) {
      src[v] = -x[mna.source_current_index(v)];
    }
    result.vsource_currents.push_back(std::move(src));
  }

  void commit_caps(const la::Vector& x, const std::vector<double>& geq,
                   const std::vector<double>& ieq) {
    const auto& caps = netlist.capacitors();
    for (std::size_t c = 0; c < caps.size(); ++c) {
      const double v_new =
          mna.node_voltage(x, caps[c].a) - mna.node_voltage(x, caps[c].b);
      cap_current[c] = geq[c] * v_new - ieq[c];
      cap_voltage[c] = v_new;
    }
  }
};

}  // namespace

double TransientResult::average_node_voltage(NodeId node,
                                             double from_time) const {
  return windowed_average(time, from_time, [&](std::size_t k) {
    return node == kGround ? 0.0 : node_voltages[k][node];
  });
}

double TransientResult::average_vsource_current(std::size_t source,
                                                double from_time) const {
  return windowed_average(time, from_time, [&](std::size_t k) {
    VS_REQUIRE(source < vsource_currents[k].size(),
               "voltage source index out of range");
    return vsource_currents[k][source];
  });
}

double TransientResult::min_node_voltage(NodeId node, double from_time) const {
  VS_REQUIRE(!time.empty(), "no samples recorded");
  double m = 1e300;
  for (std::size_t k = 0; k < time.size(); ++k) {
    if (time[k] < from_time) continue;
    m = std::min(m, node == kGround ? 0.0 : node_voltages[k][node]);
  }
  return m;
}

double TransientResult::max_node_voltage(NodeId node, double from_time) const {
  VS_REQUIRE(!time.empty(), "no samples recorded");
  double m = -1e300;
  for (std::size_t k = 0; k < time.size(); ++k) {
    if (time[k] < from_time) continue;
    m = std::max(m, node == kGround ? 0.0 : node_voltages[k][node]);
  }
  return m;
}

TransientSimulator::TransientSimulator(const Netlist& netlist,
                                       double clock_period)
    : netlist_(netlist), clock_period_(clock_period) {
  VS_REQUIRE(clock_period > 0.0, "clock period must be positive");
}

std::vector<bool> TransientSimulator::switch_states(double t) const {
  std::vector<bool> on(netlist_.switches().size());
  for (std::size_t s = 0; s < on.size(); ++s) {
    const auto& phase = netlist_.switches()[s].phase;
    on[s] = frac(t / clock_period_ + phase.phase_offset) < phase.duty;
  }
  return on;
}

sim::PeriodicEvents TransientSimulator::switch_edges() const {
  if (netlist_.switches().empty()) return {};
  std::vector<double> fractions;
  fractions.reserve(2 * netlist_.switches().size());
  for (const auto& sw : netlist_.switches()) {
    // ON while frac(t/T + offset) < duty: edges where the shifted phase
    // crosses 0 (turn-on) and duty (turn-off).
    fractions.push_back(frac(1.0 - sw.phase.phase_offset));
    fractions.push_back(frac(sw.phase.duty - sw.phase.phase_offset + 1.0));
  }
  return sim::PeriodicEvents(clock_period_, std::move(fractions));
}

TransientResult TransientSimulator::run(const TransientOptions& options) {
  VS_REQUIRE(options.stop_time > 0.0, "stop_time must be positive");
  for (const auto& f : options.switch_faults) {
    VS_REQUIRE(f.switch_index < netlist_.switches().size(),
               "switch-fault index out of range");
    VS_REQUIRE(std::isfinite(f.time), "switch-fault time must be finite");
  }
  options.control.validate();
  if (options.mode == SteppingMode::Fixed) {
    return run_fixed(options);
  }
  return run_adaptive(options);
}

TransientResult TransientSimulator::run_fixed(const TransientOptions& options) {
  VS_REQUIRE(options.time_step > 0.0, "time_step must be positive");
  VS_REQUIRE(options.time_step < options.stop_time,
             "time_step must be smaller than stop_time");
  const double h = options.time_step;

  // The historical footgun, now diagnosed: with a fixed grid, switch events
  // only land on step boundaries when the step divides the clock period.
  if (!netlist_.switches().empty() && !sim::divides_evenly(clock_period_, h)) {
    std::ostringstream oss;
    oss << "fixed time_step " << h << " s does not divide the clock period "
        << clock_period_ << " s evenly (period/step = " << clock_period_ / h
        << "); switch edges would skew -- use period/N, or "
           "SteppingMode::Adaptive which snaps onto edges";
    VS_FAIL(oss.str());
  }

  Engine eng(netlist_);
  if (options.start_from_dc) eng.init_from_dc(switch_states(0.0));

  const sim::FixedGrid grid(options.control, h, options.stop_time);
  eng.result.time.reserve(grid.reserve());
  eng.result.node_voltages.reserve(grid.reserve());
  eng.result.vsource_currents.reserve(grid.reserve());

  sim::TransientReport& report = eng.result.report;
  std::vector<bool> prev_state = switch_states(0.5 * h);
  std::vector<bool> faults_applied(options.switch_faults.size(), false);
  int backward_euler_steps = 2;  // start conservatively

  std::vector<double> geq(netlist_.capacitors().size());
  std::vector<double> ieq(netlist_.capacitors().size());
  la::Vector x;

  for (std::size_t step = 0; step < grid.steps(); ++step) {
    const double t_new = grid.time(step);
    if (!grid.admit(t_new, report)) break;
    // Evaluate switch state at the midpoint of the step so events that land
    // exactly on a boundary take effect in the step that follows them.
    const std::vector<bool> state =
        apply_switch_faults(switch_states(t_new - 0.5 * h), options,
                            t_new - 0.5 * h, t_new, faults_applied, report);
    if (state != prev_state) {
      backward_euler_steps = 2;
      prev_state = state;
    }
    const bool be = backward_euler_steps > 0;
    if (backward_euler_steps > 0) --backward_euler_steps;

    eng.companions(be, h, geq, ieq);
    if (!eng.solve_step(state, be, h, geq, ieq, t_new, x)) {
      report.status = sim::TransientStatus::SolverFailure;
      report.diagnostic = "step matrix singular beyond the gmin ladder at "
                          "t = " + std::to_string(t_new) + " s";
      break;
    }
    if (!sim::finite_and_bounded(x)) {
      report.status = sim::TransientStatus::SolverFailure;
      report.diagnostic =
          "NaN/overflow guard fired at t = " + std::to_string(t_new) +
          " s (fixed step cannot be refined; rerun with a smaller step or "
          "SteppingMode::Adaptive)";
      ++report.rejected_steps;
      ++report.guard_rejections;
      break;
    }

    eng.commit_caps(x, geq, ieq);
    eng.record_sample(t_new, x);
    ++report.accepted_steps;
    report.end_time = t_new;
  }

  grid.finish(report);
  return eng.result;
}

TransientResult TransientSimulator::run_adaptive(
    const TransientOptions& options) {
  VS_REQUIRE(options.time_step >= 0.0, "time_step must be non-negative");

  double dt_max = options.time_step;
  if (dt_max <= 0.0) {
    dt_max = netlist_.switches().empty() ? options.stop_time / 1000.0
                                         : clock_period_ / 64.0;
  }
  dt_max = std::min(dt_max, options.stop_time);
  const double dt_init = dt_max / 8.0;
  const double dt_edge_restart = dt_max / 256.0;
  constexpr int kBeStartupSteps = 2;

  Engine eng(netlist_);
  if (options.start_from_dc) eng.init_from_dc(switch_states(0.0));

  // Unified timeline: clocked switch edges plus every switch-fault instant,
  // so the controller lands a step boundary exactly on each.
  sim::EventSchedule schedule(options.stop_time);
  schedule.add_periodic(switch_edges());
  for (const auto& f : options.switch_faults) schedule.add_time(f.time);
  sim::StepController ctl(options.control, 0.0, options.stop_time, dt_init,
                          dt_max);
  std::vector<bool> faults_applied(options.switch_faults.size(), false);

  std::vector<double> geq(netlist_.capacitors().size());
  std::vector<double> ieq(netlist_.capacitors().size());
  la::Vector x;
  // Last accepted solution and its per-unknown slope, for the LTE predictor.
  // The norm runs over the FULL MNA vector (node voltages and source branch
  // currents), not just capacitor states: the post-edge current spikes decay
  // with the switch RC constant, and resolving them is what makes the
  // time-weighted average input current (and hence efficiency) accurate.
  la::Vector x_prev, x_slope, x_pred;
  bool have_slope = false;

  int be_left = kBeStartupSteps;  // startup; reset after every switch edge

  while (!ctl.done() && !ctl.failed()) {
    const double t = ctl.time();
    const double dt = ctl.begin_step(schedule.next_after(t));
    if (ctl.failed()) break;
    const bool be = be_left > 0;

    const std::vector<bool> state =
        apply_switch_faults(switch_states(t + 0.5 * dt), options, t + 0.5 * dt,
                            t, faults_applied, ctl.report());
    eng.companions(be, dt, geq, ieq);
    if (!eng.solve_step(state, be, dt, geq, ieq, t, x)) {
      ctl.reject_step("unfactorizable step matrix");
      continue;
    }
    if (!sim::finite_and_bounded(x)) {
      ctl.reject_step("NaN/overflow guard");
      continue;
    }

    // LTE estimate: linear predictor from the last accepted step's slope.
    // Skipped during BE startup (the slope across a switching discontinuity
    // is meaningless); the reduced step after reset_dt covers accuracy.
    double err = 0.0;
    if (!be && have_slope) {
      x_pred.resize(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        x_pred[i] = x_prev[i] + x_slope[i] * dt;
      }
      err = sim::error_norm(x, x_pred, options.control.rel_tol,
                            options.control.abs_tol);
    }

    const bool on_edge = ctl.ends_on_event();
    if (!ctl.finish_step(err, be ? 1 : 2)) continue;

    if (x_prev.size() == x.size()) {
      x_slope.resize(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        x_slope[i] = (x[i] - x_prev[i]) / dt;
      }
      have_slope = true;
    }
    x_prev = x;
    eng.commit_caps(x, geq, ieq);
    eng.record_sample(ctl.time(), x);

    if (on_edge) {
      be_left = kBeStartupSteps;
      ctl.reset_dt(dt_edge_restart);
    } else if (be_left > 0) {
      --be_left;
    }
  }

  ctl.finalize();
  eng.result.report = ctl.report();
  return eng.result;
}

}  // namespace vstack::circuit
