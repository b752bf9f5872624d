// The four end-to-end workloads of bench_e2e.
//
// Each workload is a closed loop with one caller: the benchmark makes a
// round of public calls, waits for every result, checks it, and only then
// starts the next round.  Inputs come from the seed alone and every round
// of a run repeats the same inputs, so each round's output must match the
// first round's exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tracer.h"

namespace vstack::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  std::string work_dir;  // where the workload writes its files
  std::string self_exe;  // this binary, re-executed as shard worker
};

/// name -> (value, unit)
using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct RoundResult {
  std::size_t items = 0;   // work items completed (see each workload)
  std::size_t failed = 0;  // solver failures, truncated or lost scenarios
  /// One line per result record, every value except timings.
  std::vector<std::string> lines;
  /// Named outputs compared against expected/<workload>.json for seed 42.
  std::map<std::string, double> results;
  /// Telemetry deltas recorded in child processes (shard workers).
  Counts remote;
  /// Sum of per-item wall times the library reports (campaign scenarios).
  double item_wall_s = 0.0;
};

/// Totals over the traced rounds of a run, for per-layer ratios.
struct TracedTotals {
  std::size_t rounds = 0;
  double wall_s = 0.0;
  double item_wall_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads (or worker processes) a round keeps busy.
  virtual std::size_t jobs() const = 0;

  /// Program-side set-up, called (and timed) before every round; each call
  /// rebuilds the state the round uses.
  virtual void setup(Tracer& tracer) = 0;

  virtual RoundResult round(Tracer& tracer, int index) = 0;

  /// Untimed work after a round: removing its files, and in traced rounds
  /// the extra calls whose cost is reported per layer.
  virtual void after_round(Tracer&) {}

  /// Seed-independent checks on one round's output; returns the failures.
  virtual std::vector<std::string> check(const RoundResult& r) const = 0;

  /// Traced runs only: workload-specific per-layer metrics and probes.
  /// Probe failures are appended to `problems`.
  virtual void probe(Tracer&, const TracedTotals&, Metrics&,
                     std::vector<std::string>& /*problems*/) {}
};

/// paper_sweep | campaign_threads | campaign_shards | ext_grid.  Generates
/// the workload's inputs (not timed).
std::unique_ptr<Workload> make_workload(const Options& options);

/// Shard worker entry point: `bench_e2e worker --job-dir=... --worker-id=...
/// --jobs=N`, as the supervisor appends it.  Writes the worker's telemetry
/// counters to $VSTACK_E2E_WORKER_METRICS/<worker-id>.<pid>.txt when set.
int run_shard_worker(const std::string& job_dir, const std::string& worker_id,
                     std::size_t jobs);

}  // namespace vstack::e2e
