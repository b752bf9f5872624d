// Shared worker-pool engine for the embarrassingly parallel scenario layers
// (campaigns, contingency sweeps, figure drivers).
//
// Every multi-scenario API in core takes an ExecutionPolicy (defaulted to
// serial) and runs its scenarios through TaskPool::run_ordered, which
// splits the work across `jobs` threads but commits results strictly in
// index order on the CALLING thread.  That ordered reduction is what makes
// parallel runs bit-identical to serial ones: aggregates accumulate in the
// same order, and JSONL checkpoint manifests receive the same byte
// sequence (entries keyed by trial index, committed as a contiguous
// prefix, never out of order) -- so a manifest written at jobs=8 resumes
// under jobs=1 and vice versa.  See docs/parallel_execution.md.
//
// Scheduling: workers claim one index at a time from an atomic cursor,
// which balances best when per-scenario cost varies wildly (post-fault
// transients).  A work exception marks its slot failed and stops all
// further claims; the committed prefix stays intact, and the lowest-index
// error is rethrown on the caller once in-flight work drains.  Commit
// callbacks run only on the caller's thread, so committers that write
// files or mutate aggregates need no locking of their own.
#pragma once

#include <cstddef>
#include <functional>

#include "common/deadline.h"

namespace vstack::core {

/// How a multi-scenario run is executed.  The default is serial (jobs = 1),
/// which runs work and commit inline on the caller's thread -- exactly the
/// historical single-threaded behavior.
struct ExecutionPolicy {
  /// Worker threads.  1 = serial (no threads spawned); 0 = auto, resolved
  /// through default_jobs() (VSTACK_JOBS env override, else hardware
  /// concurrency).
  std::size_t jobs = 1;

  /// Cooperative cancellation / wall-clock deadline.  Checked before every
  /// claim (and before each serial task): once it fires no new work starts,
  /// in-flight scenarios drain, and run_ordered returns the contiguous
  /// committed prefix.  Expiry is NOT an error -- nothing is thrown; callers
  /// compare the returned count against `count` and consult
  /// deadline.expired() to label the truncation.  Default: unlimited.
  Deadline deadline{};

  void validate() const;

  /// `jobs`, with 0 resolved to default_jobs().
  std::size_t resolved_jobs() const;

  /// VSTACK_JOBS environment override (positive integer), else
  /// std::thread::hardware_concurrency(), else 1.
  static std::size_t default_jobs();
};

class TaskPool {
 public:
  /// Evaluate task `index`; runs on a worker thread (or inline when
  /// serial).  Results go into caller-owned per-index storage; the pool's
  /// internal handshake makes each slot's write visible to its commit.
  using Work = std::function<void(std::size_t index)>;

  /// Reduce task `index`; always runs on the calling thread, invoked in
  /// strictly increasing index order.
  using Commit = std::function<void(std::size_t index)>;

  explicit TaskPool(ExecutionPolicy policy = {});

  const ExecutionPolicy& policy() const { return policy_; }

  /// Run `work` over [0, count) on the policy's workers and `commit` each
  /// index in order on this thread.  The first work or commit error stops
  /// all further claims; once workers drain, the lowest-index work error
  /// (or the commit error) is rethrown.  Workers are tagged for logging
  /// (set_log_worker_id).
  ///
  /// Returns the number of indices committed -- always a contiguous prefix
  /// [0, returned).  Less than `count` only when the policy deadline fired
  /// (see ExecutionPolicy::deadline); all other early exits throw.
  std::size_t run_ordered(std::size_t count, const Work& work,
                          const Commit& commit) const;

 private:
  ExecutionPolicy policy_;
};

}  // namespace vstack::core
