// The shard supervisor: publish a plan, fork/exec a local worker fleet,
// restart crashed workers with per-slot exponential backoff, and merge
// when the fleet drains.
//
// The supervisor is an OPTIONAL convenience -- the protocol is carried
// entirely by the job directory, so workers started by hand (or on other
// machines sharing the filesystem) compose with supervised ones.  The
// supervisor never touches leases or chunks itself; its whole job is
// process lifecycle:
//
//   * A worker that exits 0 finished the job (every chunk resolved) --
//     the slot is retired.
//   * A worker killed by a signal or exiting nonzero crashed -- the slot
//     restarts after a backoff that doubles per consecutive crash (poison
//     chunks crash workers in a tight loop until quarantine kicks in; the
//     backoff keeps that loop from burning CPU).
//   * max_restarts per slot bounds the blast radius of a systematically
//     crashing binary; a slot that exhausts it is abandoned (the rest of
//     the fleet -- and lease expiry -- still drives the job forward).
//
// The supervisor holds a pidfd per worker and waits in poll() on them, so
// it sees each exit at once, and a restart fires when its backoff ends.
// poll_s only bounds how late it sees the stop token and health deadline
// (and reaps a worker whose pidfd could not be opened, Linux < 5.3).
//
// On stop (SIGINT/SIGTERM mapped through the Deadline token), workers get
// SIGTERM, stop at their next trial boundary, and the supervisor still
// merges the partial job -- same contract as the serial campaign's
// interrupted-with-prefix-intact exit.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/study.h"
#include "shard/job.h"
#include "shard/merge.h"

namespace vstack::shard {

/// Largest worker fleet a supervisor (or the spool service) will fork.
/// The count comes from the command line, so it is bounded before any
/// process starts.
inline constexpr std::size_t kMaxShards = 256;

struct SupervisorOptions {
  std::string job_dir;
  std::size_t shards = 2;  // worker process count, 1..kMaxShards
  /// argv prefix for workers; "worker --job-dir=... --worker-id=wN
  /// --jobs=N" is appended.  Typically {"/proc/self/exe" resolved}.
  std::vector<std::string> worker_command;
  std::size_t worker_jobs = 1;   // intra-worker parallelism
  double poll_s = 0.2;           // longest wait between stop/health checks
  double backoff_s = 0.5;        // initial restart backoff (doubles, cap 16x)
  std::size_t max_restarts = 20; // per slot
  double health_interval_s = 2.0;  // job health.json period; 0 disables
  Deadline stop;

  void validate() const;
};

struct SupervisorReport {
  std::size_t workers_started = 0;    // initial fleet
  std::size_t workers_restarted = 0;  // crash restarts across all slots
  std::size_t failed_slots = 0;       // slots that exhausted max_restarts
  bool interrupted = false;           // stop token fired
  MergeReport merge;
};

/// Publish `spec` into opts.job_dir (or verify a resumed job matches), run
/// the fleet to completion, and merge.  Throws on setup errors; worker
/// crashes are handled, not thrown.
SupervisorReport run_supervised_job(const core::StudyContext& ctx,
                                    const JobSpec& spec,
                                    const SupervisorOptions& opts);

}  // namespace vstack::shard
