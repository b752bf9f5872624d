// Resilient campaign service: a spool-directory daemon that runs analysis
// requests (campaign / contingency / sweep / ride-through) on the existing
// runners, hardened end to end:
//
//   * Per-request wall-clock deadlines: a core::Deadline token rides the
//     ExecutionPolicy into TaskPool chunk boundaries, the step controller,
//     and the la::Solver iteration loops, so a stuck solve aborts instead of
//     wedging the server.  An expired request answers TIMEOUT with the
//     committed prefix aggregated.
//   * Bounded retry with exponential backoff + deterministic jitter
//     (service/retry.h); campaign retries resume from the per-request
//     manifest, so work is never repeated.
//   * Admission control and graceful degradation (service/admission.h):
//     queue overflow answers REJECTED_OVERLOAD, pressure short of overflow
//     runs with reduced Monte-Carlo trial counts and `degraded: 1`.
//   * Crash safety: responses append to results/responses.jsonl via
//     single-write + fsync (common/durable_file.h) BEFORE the request file
//     moves out of active/, so a kill -9 at any instant leaves each request
//     either unanswered-and-active (re-run on restart, resuming from its
//     manifest) or answered-and-terminal -- never both, never neither.
//   * Health snapshots: health.json (atomic rename) with queue/served/
//     degraded gauges and the full telemetry registry dump.
//
// Spool layout under ServerOptions.root:
//   incoming/<id>.req   -- submitted requests (write elsewhere, rename in)
//   active/<id>.req     -- claimed, being executed
//   done/<id>.req       -- answered terminally (ok / timeout)
//   failed/<id>.req     -- answered as failed / invalid / rejected
//   results/responses.jsonl
//   manifests/<id>.jsonl
//   health.json
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/study.h"
#include "core/task_pool.h"
#include "service/admission.h"
#include "service/retry.h"

namespace vstack::service {

struct ServerOptions {
  /// Spool root; created (with the sub-directories) if absent.
  std::string root;

  /// Idle poll interval [s]; sleeps are interruptible by `stop`.
  double poll_interval_s = 0.2;

  /// Health snapshot cadence [s]; 0 writes only at startup/shutdown.
  double health_interval_s = 2.0;

  /// Stop after this many terminal responses; 0 = run until `stop` fires.
  std::size_t max_requests = 0;

  /// Exit after the spool has been empty this long [s]; 0 = never.  Lets
  /// batch drivers (CI chaos harness) run the server to quiescence.
  double idle_exit_s = 0.0;

  /// Default per-request deadline [s] for requests that set none; 0 keeps
  /// them unlimited.
  double default_deadline_s = 0.0;

  RetryPolicy retry;
  AdmissionOptions admission;

  /// Campaign requests dispatch to a multi-process shard fleet of this
  /// many workers instead of in-process threads; 0 keeps the in-process
  /// path.  Each request gets its own job directory under root/jobs/<id>,
  /// so a worker crash (or poison scenario) is isolated from the server
  /// process -- the quarantine + merge machinery of src/shard applies per
  /// request.  Requires worker_command; at most shard::kMaxShards.
  std::size_t shard_workers = 0;

  /// argv prefix for shard worker processes (typically the server's own
  /// binary); see shard::SupervisorOptions::worker_command.
  std::vector<std::string> worker_command;

  /// Default scheduling for requests with jobs = 0.
  core::ExecutionPolicy execution;

  /// Server stop token.  vstack_cli serve passes the SIGINT/SIGTERM
  /// shutdown token; when it fires the in-flight request is cancelled at
  /// the next chunk/iteration boundary and left in active/ WITHOUT a
  /// response, so the next start resumes it from its manifest.
  Deadline stop;

  void validate() const;
};

struct ServerStats {
  std::size_t served = 0;       // terminal responses written
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timeout = 0;
  std::size_t invalid = 0;
  std::size_t rejected = 0;     // REJECTED_OVERLOAD
  std::size_t degraded = 0;     // ran with reduced trials
  std::size_t retries = 0;      // extra attempts across all requests
  std::size_t recovered = 0;    // active/ requests adopted at startup
  bool interrupted = false;     // stop token fired

  std::string summary() const;
};

class SpoolServer {
 public:
  SpoolServer(const core::StudyContext& ctx, ServerOptions options);

  const ServerOptions& options() const { return options_; }

  /// Create the spool layout, recover active/ requests, then poll until
  /// the stop token fires (or max_requests / idle_exit_s is hit).
  ServerStats run();

 private:
  const core::StudyContext& ctx_;
  ServerOptions options_;
};

}  // namespace vstack::service
