// Mid-run fault events in the PDN transient engine (pdn::TimedFaultEvent):
// scheduling semantics in fixed and adaptive mode, load surges, validation,
// and the epoch-keyed factorization cache that makes post-fault solves safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.h"
#include "floorplan/floorplan.h"
#include "pdn/transient.h"
#include "pdn/transient_core.h"
#include "power/workload.h"

namespace vstack::pdn {
namespace {

const floorplan::Floorplan& paper_fp() {
  static const floorplan::Floorplan fp = floorplan::paper_layer_floorplan();
  return fp;
}

const power::CorePowerModel& cpm() {
  static const power::CorePowerModel m =
      power::CorePowerModel::cortex_a9_like();
  return m;
}

StackupConfig small_stack(std::size_t layers) {
  StackupConfig cfg;
  cfg.topology = PdnTopology::VoltageStacked;
  cfg.layer_count = layers;
  cfg.grid_nx = cfg.grid_ny = 8;
  return cfg;
}

PdnTransientOptions fast_options() {
  PdnTransientOptions o;
  o.time_step = 1e-9;
  o.duration = 80e-9;
  o.step_time = 10e-9;
  return o;
}

/// Imbalanced per-layer activities (the stress case for stacking): odd
/// layers draw a fraction of the even layers' load, so the intermediate
/// rails lean on the converters.
std::vector<double> imbalanced(std::size_t layers) {
  std::vector<double> a(layers, 1.0);
  for (std::size_t i = 1; i < layers; i += 2) a[i] = 0.2;
  return a;
}

/// Stuck-off fault for every converter at `level` except the first `keep`.
FaultSet kill_level_converters(const PdnModel& model, std::size_t level,
                               std::size_t keep) {
  FaultSet fs;
  std::size_t kept = 0;
  const auto& convs = model.network().converters();
  for (std::size_t i = 0; i < convs.size(); ++i) {
    if (convs[i].level != level) continue;
    if (kept < keep) {
      ++kept;
    } else {
      fs.converter_stuck_off(i);
    }
  }
  return fs;
}

bool trail_contains(const sim::TransientReport& report,
                    const std::string& needle) {
  for (const auto& ev : report.events) {
    if (ev.what.find(needle) != std::string::npos) return true;
  }
  return false;
}

double max_noise_after(const PdnTransientResult& r, double t) {
  double worst = 0.0;
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    if (r.time[k] >= t) worst = std::max(worst, r.worst_noise[k]);
  }
  return worst;
}

TEST(PdnFaultEventTest, FaultAppliesAtScheduledTimeOnTheFixedGrid) {
  // Fresh models per run: PdnModel::solve warm-starts its CG from the last
  // solution, so sharing one model would skew the two DC initial conditions
  // against each other at the iterative tolerance level.
  PdnModel healthy_model(small_stack(2), paper_fp());
  PdnModel faulted_model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  const auto healthy = simulate_load_step(healthy_model, cpm(), acts, acts,
                                          fast_options());
  ASSERT_TRUE(healthy.ok());

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = 40e-9;
  ev.faults = kill_level_converters(faulted_model, 1, 4);
  ev.label = "conv-kill";
  o.fault_events.push_back(ev);

  const auto r = simulate_load_step(faulted_model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;
  ASSERT_EQ(r.time.size(), healthy.time.size());

  // Before the strike the faulted run retraces the healthy waveform
  // (startup ringing and all) on the identical fixed grid.
  for (std::size_t k = 0; k < r.time.size(); ++k) {
    if (r.time[k] >= 40e-9) break;
    EXPECT_DOUBLE_EQ(r.worst_noise[k], healthy.worst_noise[k])
        << "pre-fault sample at t=" << r.time[k];
  }
  // After it, losing most of the level-1 converters under imbalance droops
  // the intermediate rail well past anything the healthy run shows.
  EXPECT_GT(max_noise_after(r, 40e-9),
            max_noise_after(healthy, 0.0) + 0.02);
  EXPECT_TRUE(trail_contains(r.report, "fault event 'conv-kill' applied"));
}

TEST(PdnFaultEventTest, FaultAtTimeZeroStartsFromTheHealthyOperatingPoint) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  const auto healthy = simulate_load_step(model, cpm(), acts, acts,
                                          fast_options());
  ASSERT_TRUE(healthy.ok());

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = 0.0;
  ev.faults = kill_level_converters(model, 1, 4);
  ev.label = "at-zero";
  o.fault_events.push_back(ev);
  const auto r = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;

  // The initial condition is the HEALTHY DC point -- the fault only shapes
  // the waveform from t = 0+ onward.  (Loose tolerance: the shared model's
  // warm-started CG makes repeat DC solves agree only to the iterative
  // tolerance, far below the ~0.1 fault droop this test watches for.)
  EXPECT_NEAR(r.initial_noise, healthy.initial_noise, 1e-5);
  EXPECT_GT(r.final_noise, r.initial_noise + 0.02);
  EXPECT_TRUE(trail_contains(r.report, "'at-zero' applied"));
}

TEST(PdnFaultEventTest, AdaptiveSnapsAStepBoundaryOntoTheFaultInstant) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();
  o.adaptive = true;
  TimedFaultEvent ev;
  // Deliberately off any uniform grid a sane controller would pick.
  ev.time = 13.7e-9;
  ev.faults = kill_level_converters(model, 1, 4);
  ev.label = "off-grid";
  o.fault_events.push_back(ev);
  const auto r = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;

  double closest = std::numeric_limits<double>::infinity();
  for (double t : r.time) closest = std::min(closest, std::abs(t - ev.time));
  EXPECT_LT(closest, 1e-13) << "no accepted step boundary on the fault";
  EXPECT_GT(max_noise_after(r, ev.time), r.initial_noise + 0.02);
  EXPECT_TRUE(trail_contains(r.report, "'off-grid' applied"));
}

TEST(PdnFaultEventTest, TwoFaultsInsideOneFixedStepBothApply) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();  // 1 ns grid
  TimedFaultEvent first;
  first.time = 40.2e-9;  // both inside the (40 ns, 41 ns] interval
  first.faults = kill_level_converters(model, 1, 16);
  first.label = "first-hit";
  TimedFaultEvent second;
  second.time = 40.7e-9;
  second.faults = kill_level_converters(model, 1, 4);
  second.label = "second-hit";
  o.fault_events.push_back(first);
  o.fault_events.push_back(second);

  const auto r = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;
  EXPECT_TRUE(trail_contains(r.report, "'first-hit' applied"));
  EXPECT_TRUE(trail_contains(r.report, "'second-hit' applied"));
  EXPECT_GT(max_noise_after(r, 41e-9), r.initial_noise + 0.02);
}

TEST(PdnFaultEventTest, AdaptiveAndFixedAgreeOnTheFaultedEndpoint) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();
  o.duration = 200e-9;
  TimedFaultEvent ev;
  ev.time = 50e-9;
  ev.faults = kill_level_converters(model, 1, 8);
  o.fault_events.push_back(ev);

  const auto fixed = simulate_load_step(model, cpm(), acts, acts, o);
  o.adaptive = true;
  const auto adaptive = simulate_load_step(model, cpm(), acts, acts, o);
  ASSERT_TRUE(fixed.ok()) << fixed.report.diagnostic;
  ASSERT_TRUE(adaptive.ok()) << adaptive.report.diagnostic;

  // Same physics, different grids: the settled post-fault levels must agree.
  EXPECT_NEAR(adaptive.final_noise, fixed.final_noise,
              0.05 * fixed.final_noise + 0.002);
}

TEST(PdnFaultEventTest, LoadSurgeEventReplacesTheActivities) {
  PdnModel model(small_stack(2), paper_fp());
  const std::vector<double> light(2, 0.2);

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = 30e-9;
  ev.activities = {1.0, 1.0};  // pure load surge: no topology change
  ev.label = "surge";
  o.fault_events.push_back(ev);

  const auto r = simulate_load_step(model, cpm(), light, light, o);
  ASSERT_TRUE(r.ok()) << r.report.diagnostic;
  EXPECT_GT(max_noise_after(r, 32e-9), r.initial_noise);
  EXPECT_GT(r.supply_current.back(), r.supply_current.front());
  EXPECT_TRUE(trail_contains(r.report, "load surge 'surge' applied"));
}

TEST(PdnFaultEventTest, ValidationRejectsBadEventTimes) {
  PdnModel model(small_stack(2), paper_fp());
  const auto acts = imbalanced(2);

  PdnTransientOptions o = fast_options();
  TimedFaultEvent ev;
  ev.time = o.duration;  // at/after the end: nothing left to observe
  o.fault_events.push_back(ev);
  EXPECT_THROW(simulate_load_step(model, cpm(), acts, acts, o), Error);

  o.fault_events[0].time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(simulate_load_step(model, cpm(), acts, acts, o), Error);

  o.fault_events[0].time = 20e-9;
  o.fault_events[0].activities = {1.0};  // wrong layer count
  EXPECT_THROW(simulate_load_step(model, cpm(), acts, acts, o), Error);
}

TEST(PdnFaultEventTest, StepSolverCacheIsInvalidatedByTheTopologyEpoch) {
  // Regression for the epoch-keyed factorization cache: solving, mutating
  // the topology, then solving again at the SAME (dt, scheme) must use the
  // post-fault matrix -- bit-identical to a fresh solver built after the
  // mutation, and different from the pre-fault solution.
  PdnModel model(small_stack(2), paper_fp());
  PdnNetwork net = model.network();
  PdnTransientOptions o = fast_options();

  detail::TransientWorkspace ws(net, o);
  detail::StepSolver solver(ws.system(), o);
  const std::size_t n = ws.n();
  const la::Vector rhs(n, 1e-3);
  sim::TransientReport report;
  std::string diag;

  la::Vector before(n, 0.0);
  ASSERT_TRUE(solver.solve(1e-9, true, rhs, before, 0.0, report, diag))
      << diag;

  kill_level_converters(model, 1, 4).apply_to(net);
  ws.rebuild_topology();

  la::Vector after(n, 0.0);
  ASSERT_TRUE(solver.solve(1e-9, true, rhs, after, 1e-9, report, diag))
      << diag;

  // A solver with no pre-fault history must produce the identical solution.
  detail::StepSolver fresh(ws.system(), o);
  la::Vector reference(n, 0.0);
  ASSERT_TRUE(fresh.solve(1e-9, true, rhs, reference, 1e-9, report, diag))
      << diag;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(after[i], reference[i]) << "entry " << i;
  }

  // And the mutation must actually have changed the answer (a stale cached
  // factorization would have reproduced `before`).
  double delta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    delta = std::max(delta, std::abs(after[i] - before[i]));
  }
  EXPECT_GT(delta, 1e-12);
}

/// SplitSystem::assemble replays the epoch's merge plan; it must equal a
/// fresh CooBuilder build of the same three parts, bit for bit, for both
/// schemes and any step size.
void expect_replay_matches_fresh_build(const detail::SplitSystem& sys) {
  const auto bits = [](double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    return b;
  };
  for (const bool be : {true, false}) {
    for (const double h : {1e-12, 3.7e-10, 1e-9, 2.5e-8}) {
      const double s = be ? 1.0 : 2.0;
      la::CooBuilder fresh(sys.n);
      for (const auto& t : sys.static_part) fresh.add(t.i, t.j, t.v);
      for (const auto& t : sys.cap_part) fresh.add(t.i, t.j, t.v * s / h);
      for (const auto& t : sys.ind_part) fresh.add(t.i, t.j, t.v * h / s);
      const la::CsrMatrix expected = fresh.build();
      const la::CsrMatrix replayed = sys.assemble(h, be);
      ASSERT_EQ(replayed.row_ptr(), expected.row_ptr()) << "h " << h;
      ASSERT_EQ(replayed.col_idx(), expected.col_idx()) << "h " << h;
      ASSERT_EQ(replayed.nnz(), expected.nnz());
      for (std::size_t k = 0; k < expected.nnz(); ++k) {
        ASSERT_EQ(bits(replayed.values()[k]), bits(expected.values()[k]))
            << "h " << h << (be ? " BE" : " trap") << ", entry " << k;
      }
    }
  }
}

TEST(PdnFaultEventTest, StepMatrixReplayMatchesFreshBuildAcrossRebuilds) {
  PdnModel model(small_stack(3), paper_fp());
  PdnNetwork net = model.network();
  const PdnTransientOptions o = fast_options();
  detail::TransientWorkspace ws(net, o);
  expect_replay_matches_fresh_build(ws.system());
  const std::size_t stamps_before = ws.system().plan.stamp_count();
  const std::size_t nnz_before = ws.system().plan.nnz();

  // Change the stamp list: open a grid strap outright and engage a bypass
  // clone of a converter.  A plan kept from before would now replay the
  // wrong positions.
  std::size_t strap = net.conductors().size();
  for (std::size_t i = 0; i < net.conductors().size(); ++i) {
    if (net.conductors()[i].kind == ConductorKind::GridStrap) {
      strap = i;
      break;
    }
  }
  ASSERT_LT(strap, net.conductors().size());
  net.remove_conductor_units(strap, net.conductors()[strap].count);
  net.add_converter_clone(0, 2.0 * net.converters()[0].r_series);
  ws.rebuild_topology();

  EXPECT_NE(ws.system().plan.stamp_count(), stamps_before);
  EXPECT_NE(ws.system().plan.nnz(), nnz_before);
  expect_replay_matches_fresh_build(ws.system());
}

}  // namespace
}  // namespace vstack::pdn
