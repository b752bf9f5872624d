// Shared internals of the PDN transient routes (pdn/transient.cpp and
// pdn/ride_through.cpp): the timestep-independent split system, the
// epoch-keyed per-(dt, scheme) step solver, the companion-state workspace,
// the one TimedFaultEvent applier, and the one adaptive step loop.
//
// run_adaptive() is the adaptive loop of both routes: simulate_load_step in
// adaptive mode and simulate_ride_through.  A route supplies only what
// happens at a step boundary (returning whether integration restarts) and
// what it records for an accepted step.  FaultEventApplier applies the
// TimedFaultEvents of both routes and of the load step's fixed grid.
//
// Everything here operates on a PdnNetwork the caller owns (the engines copy
// the model's network so mid-run fault events never mutate caller state).
// After any topology mutation -- an injected fault, a supervisor action --
// the caller invokes TransientWorkspace::rebuild_topology(), which
// reassembles the split system and advances its epoch stamp; StepSolver
// keys its factorization/preconditioner cache on that epoch, so a stale
// factorization of the pre-fault topology can never be reused (see
// docs/fault_model.md section on dynamic faults).
//
// This header is an implementation detail of vstack_pdn; it is not part of
// the public modeling API.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "la/skyline_cholesky.h"
#include "la/solver.h"
#include "pdn/transient.h"

namespace vstack::pdn::detail {

struct Trip {
  std::size_t i = 0;
  std::size_t j = 0;
  double v = 0.0;
};

/// The transient matrix split into timestep-independent parts so adaptive
/// stepping can reassemble it for any (dt, scheme) in O(stamps):
///
///   A(h) = static + cap_coeff * s/h + ind_coeff * h/s,   s = 1 (BE), 2 (trap)
///
/// where cap_coeff holds raw capacitances [F] and ind_coeff raw reciprocal
/// inductances [1/H] with the companion stamp signs baked in.  The stamp
/// positions do not depend on h, so their sort and merge is recorded once
/// per topology in `plan` and replayed for every (dt, scheme).
struct SplitSystem {
  std::size_t n = 0;
  /// Topology epoch of the network this split was assembled from; bumped by
  /// every rebuild so downstream caches can detect staleness.
  std::size_t epoch = 0;
  std::vector<Trip> static_part;
  std::vector<Trip> cap_part;
  std::vector<Trip> ind_part;
  /// Merge plan of the three parts' stamp positions, in that order;
  /// re-recorded whenever they change.
  la::CsrAssembly plan;

  /// A(h), bit-identical to adding static_part, then cap_part, then
  /// ind_part to a fresh la::CooBuilder and building it.
  la::CsrMatrix assemble(double h, bool backward_euler) const;
};

/// Step systems of at most this many unknowns are factorized per distinct
/// timestep with the RCM-reordered skyline Cholesky and back-substituted per
/// step (hundreds of times faster than per-step CG at small sizes); larger
/// systems use warm-started CG.
inline constexpr std::size_t kDirectSolverNodeLimit = 2500;

/// Per-(dt, scheme, topology epoch) cached factorization / solver handle
/// with a solve that falls back instead of throwing: skyline Cholesky (at
/// most kDirectSolverNodeLimit unknowns), then one la::Solver::solve from
/// the warm start (CG, then dense LU).
class StepSolver {
 public:
  StepSolver(const SplitSystem& sys, const PdnTransientOptions& options)
      : sys_(sys), options_(options) {}

  /// Solve A(h) x = rhs.  `x` carries the warm start and receives the
  /// solution only on success; returns false (with a diagnostic) when every
  /// step failed.  Fallback activity is recorded into `report`.
  bool solve(double h, bool backward_euler, const la::Vector& rhs,
             la::Vector& x, double t, sim::TransientReport& report,
             std::string& diagnostic);

 private:
  struct Key {
    std::uint64_t dt_bits = 0;
    bool backward_euler = false;
    std::size_t epoch = 0;
    bool operator<(const Key& o) const {
      if (epoch != o.epoch) return epoch < o.epoch;
      if (dt_bits != o.dt_bits) return dt_bits < o.dt_bits;
      return backward_euler < o.backward_euler;
    }
  };

  struct Cached {
    la::CsrMatrix matrix;
    std::unique_ptr<la::ReorderedCholesky> direct;
    /// Iterative handle bound to `matrix` (owns the preconditioner,
    /// backend preparation, and Krylov workspace).  Built when the direct
    /// factorization is skipped or fails; otherwise created lazily the
    /// first time a direct solve goes non-finite.  Always constructed
    /// AFTER the Cached slot reaches its final address in the cache map --
    /// the handle stores a pointer to `matrix`.
    std::unique_ptr<la::Solver> solver;
  };

  Cached& cached(double h, bool backward_euler, double t,
                 sim::TransientReport& report);

  const SplitSystem& sys_;
  const PdnTransientOptions& options_;
  std::map<Key, Cached> cache_;
  // RCM ordering for the direct rung.  It depends only on the sparsity
  // pattern, which every (dt, scheme) of one epoch shares, so it is
  // computed once per epoch.
  std::vector<std::size_t> ordering_;
  std::size_t ordering_epoch_ = static_cast<std::size_t>(-1);
  // Last epoch a lookup saw; a change means a topology mutation invalidated
  // every cached factorization (telemetry: pdn.step_solver.cache.*).
  std::size_t last_seen_epoch_ = static_cast<std::size_t>(-1);
};

/// Companion-state workspace shared by the load-step and ride-through
/// engines: owns the split system, the capacitor/inductor states, and the
/// RHS/commit/noise machinery.  The network reference must outlive the
/// workspace; rebuild_topology() must be called after every mutation.
class TransientWorkspace {
 public:
  TransientWorkspace(const PdnNetwork& net,
                     const PdnTransientOptions& options);

  const PdnNetwork& network() const { return net_; }
  const SplitSystem& system() const { return sys_; }
  std::size_t n() const { return sys_.n; }
  std::size_t layer_count() const { return layer_count_; }
  std::size_t cells() const { return cells_; }

  /// Reassemble the split system from the network's CURRENT conductor and
  /// converter lists, re-record its merge plan, and stamp it with the
  /// network's topology epoch.  One triplet rebuild and one sort; called
  /// once at construction and after every mid-run fault event or supervisor
  /// action.
  void rebuild_topology();

  /// Initialize companion states and the unknown vector from the pre-event
  /// DC operating point (inductors are shorts, capacitors hold the local
  /// rail span).
  void init_states(const PdnSolution& dc, la::Vector& x);

  /// Companion right-hand side for one step of size h at scheme `be`.
  void build_rhs(const std::vector<LoadInjection>& loads, double h, bool be,
                 la::Vector& rhs) const;

  /// Advance companion states to the accepted solution `sol`.
  void commit_states(const la::Vector& sol, double h, bool be);

  /// Current through the supply-side package inductor [A].
  double supply_inductor_current() const { return lvdd_i_; }

  /// Capacitor voltage states (one per (layer, cell)); read by the adaptive
  /// loop's LTE predictor.
  const std::vector<double>& cap_voltages() const { return cap_v_; }

 private:
  const PdnNetwork& net_;
  const PdnTransientOptions& options_;
  SplitSystem sys_;
  std::size_t lvdd_mid_ = 0;
  std::size_t lgnd_mid_ = 0;
  std::size_t layer_count_ = 0;
  std::size_t cells_ = 0;
  std::vector<double> layer_cap_;  // per-cell capacitance per layer [F]
  std::vector<double> cap_v_;
  std::vector<double> cap_i_;
  double lvdd_i_ = 0.0;
  double lgnd_i_ = 0.0;
  double lvdd_v_ = 0.0;
  double lgnd_v_ = 0.0;
};

/// The one applier of TimedFaultEvents.  Orders the events stably by time
/// and applies each once, at the first boundary t with time <= t + tol: its
/// load surge goes to `on_loads` (the route owns the live loads), then its
/// FaultSet goes to the network, followed by
/// TransientWorkspace::rebuild_topology().  Each application is written to
/// the report's trail.
class FaultEventApplier {
 public:
  using OnLoads = std::function<void(const std::vector<double>& activities)>;

  /// `load_step`, when given, is the route's own load change: it is ordered
  /// before events of equal time and leaves no trail line.  Throws when a
  /// load surge does not match the layer count.  Every argument must
  /// outlive the applier.
  FaultEventApplier(const std::vector<TimedFaultEvent>& events,
                    PdnNetwork& net, TransientWorkspace& ws, OnLoads on_loads,
                    const TimedFaultEvent* load_step = nullptr);

  /// Apply, in order, every event due at boundary `t`.  Returns whether the
  /// topology changed.
  bool apply_through(double t, double tol, sim::TransientReport& report);

 private:
  std::vector<const TimedFaultEvent*> events_;  // stable time order
  std::size_t next_ = 0;
  const TimedFaultEvent* load_step_;
  PdnNetwork& net_;
  TransientWorkspace& ws_;
  OnLoads on_loads_;
};

/// A route's step boundary: `t` is the boundary and `on_event` whether the
/// accepted step that ended there was clamped onto a scheduled instant
/// (false at t = 0).  It applies what is due at `t` -- into `report`'s trail
/// -- and returns whether integration restarts across a discontinuity.
using StepBoundary =
    std::function<bool(double t, bool on_event, sim::TransientReport& report)>;
/// Records the accepted step ending at `t`, whose solution is `x`.
using StepRecord = std::function<void(double t, const la::Vector& x)>;

/// The one adaptive step loop of the PDN routes.  Integrates from 0 to
/// options.duration under a sim::StepController (first step dt_max/8,
/// dt_max = min(time_step, duration)), landing exactly on every fault-event
/// time and on the route's own `instants` and `ticks`.  Each step solves the
/// companion system for `loads` -- which the route may replace at a
/// boundary -- then passes the NaN/overflow guard and the LTE test of a
/// linear capacitor-voltage predictor.  A restart takes two backward-Euler
/// steps at dt_max/16.  `boundary` runs at t = 0 and after every accepted
/// step short of the end; `record` runs for every accepted step.  `x` holds
/// the initial state and, on return, the last accepted solution.
sim::TransientReport run_adaptive(TransientWorkspace& ws,
                                  const PdnTransientOptions& options,
                                  const std::vector<double>& instants,
                                  sim::PeriodicEvents ticks,
                                  const std::vector<LoadInjection>& loads,
                                  la::Vector& x, const StepBoundary& boundary,
                                  const StepRecord& record);

}  // namespace vstack::pdn::detail
