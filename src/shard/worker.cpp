#include "shard/worker.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/durable_file.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "core/campaign_manifest.h"
#include "core/task_pool.h"
#include "shard/lease.h"
#include "telemetry/telemetry.h"

namespace vstack::shard {

namespace fs = std::filesystem;

namespace {

const telemetry::Counter t_chunks_done("shard.chunks.completed");
const telemetry::Counter t_chunks_quarantined("shard.chunks.quarantined");
const telemetry::Counter t_trials("shard.trials.evaluated");

/// Trial index that kills the process (test hook for the chaos suite);
/// SIZE_MAX when unset.
std::size_t crash_trial_from_env() {
  const char* env = std::getenv("VSTACK_SHARD_CRASH_TRIAL");
  if (!env || !*env) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
}

/// Numeric suffix of "w<id>" for log tagging; -1 when unparseable.
int numeric_worker_id(const std::string& worker_id) {
  const auto digits = worker_id.find_first_of("0123456789");
  if (digits == std::string::npos) return -1;
  return static_cast<int>(std::strtol(worker_id.c_str() + digits, nullptr, 10));
}

/// How often an idle worker checks the chunks it waits on.
constexpr std::chrono::milliseconds kIdleCheck{10};

/// Block until one of `waiting` -- chunks leased by other workers --
/// loses its lease file or gains a done/quarantine marker, `max_s` passes,
/// or `stop` fires.  The caller then scans again; `max_s` = heartbeat_s
/// keeps expired leases reclaimed on the same schedule as a plain sleep.
void wait_for_release(const JobPaths& paths,
                      const std::vector<std::size_t>& waiting, double max_s,
                      const Deadline& stop) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(max_s);
  while (!stop.expired() && std::chrono::steady_clock::now() < until) {
    for (const std::size_t c : waiting) {
      if (!fs::exists(paths.lease(c)) || fs::exists(paths.done(c)) ||
          fs::exists(paths.quarantine(c))) {
        return;
      }
    }
    std::this_thread::sleep_for(kIdleCheck);
  }
}

/// Completed attempt records for a chunk (torn lines skipped, like every
/// JSONL reader here).
std::vector<std::string> read_attempts(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    std::string worker;
    if (core::json_field(line, "worker", worker)) out.push_back(line);
  }
  return out;
}

std::string attempt_line(const std::string& worker_id, std::size_t seq) {
  std::ostringstream oss;
  oss << "{\"worker\":\"" << worker_id << "\",\"pid\":" << ::getpid()
      << ",\"seq\":" << seq << "}";
  return oss.str();
}

/// Quarantine diagnostic: who gave up, after how many attempts, with the
/// full attempt trail inlined so a postmortem needs only this one file.
std::string quarantine_record(const JobSpec& spec, std::size_t c,
                              const std::string& worker_id,
                              const std::vector<std::string>& trail) {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  std::ostringstream oss;
  oss << "{\"chunk\":" << c << ",\"trial_begin\":" << spec.chunk_begin(c)
      << ",\"trial_end\":" << spec.chunk_end(c)
      << ",\"attempts\":" << trail.size() << ",\"quarantined_by\":\""
      << worker_id << "\",\"pid\":" << ::getpid()
      << ",\"max_rss_kb\":" << ru.ru_maxrss << ",\"trail\":[";
  for (std::size_t i = 0; i < trail.size(); ++i) {
    if (i > 0) oss << ",";
    oss << trail[i];
  }
  oss << "]}";
  return oss.str();
}

}  // namespace

WorkerReport run_worker(const core::StudyContext& ctx,
                        const WorkerOptions& opts) {
  VS_REQUIRE(!opts.worker_id.empty(), "worker needs a --worker-id");
  const JobPaths paths(opts.job_dir);
  std::uint64_t plan_hash = 0;
  const JobSpec spec = load_plan(paths, plan_hash);
  const CampaignSetup setup = make_campaign(ctx, spec);
  const std::uint64_t local_hash = core::campaign_config_hash(
      setup.config, setup.activities, setup.options);
  // Drift guard: a worker binary that reconstructs a different campaign
  // from the same spec (changed defaults, changed policy constants) would
  // silently poison the merge; refuse instead.
  VS_REQUIRE(local_hash == plan_hash,
             "this worker reconstructs a different campaign than plan.json "
             "describes (config hash mismatch) -- mixed binary versions?");

  set_log_worker_id(numeric_worker_id(opts.worker_id));
  const std::size_t crash_trial = crash_trial_from_env();

  const core::CampaignRunner runner(ctx, setup.config);
  const auto scenario_plan = runner.plan(setup.activities, setup.options);
  VS_REQUIRE(scenario_plan.size() == spec.trials,
             "scenario plan size does not match the job's trial count");

  core::CampaignOptions exec_options = setup.options;
  exec_options.execution.deadline = opts.stop;

  // Per-worker shard manifest: same header + line format as the serial
  // manifest.  The header is published atomically (exactly like the serial
  // runner's) and appends repair a torn tail from a previous incarnation
  // of this worker id.
  const std::string manifest_path = paths.shard_manifest(opts.worker_id);
  if (!fs::exists(manifest_path) || fs::file_size(manifest_path) == 0) {
    atomic_write_file(manifest_path,
                      core::campaign_manifest_header(
                          spec.seed, spec.trials, plan_hash) +
                          "\n");
    // Crash here: the header is durable but no scenario line follows --
    // the next incarnation must reopen and append, not rewrite.
    VS_FAILPOINT("worker.manifest.after_header");
  }
  DurableAppender manifest;
  manifest.open(manifest_path, /*repair_torn_tail=*/true);

  LeaseManager leases(paths, opts.worker_id, spec.lease_expiry_s,
                      spec.heartbeat_s);

  WorkerReport report;
  const std::size_t chunks = spec.chunk_count();
  for (;;) {
    if (opts.stop.expired()) {
      report.stopped_early = true;
      break;
    }
    bool all_resolved = true;
    bool progress = false;
    std::vector<std::size_t> leased_elsewhere;
    for (std::size_t c = 0; c < chunks && !opts.stop.expired(); ++c) {
      if (fs::exists(paths.done(c)) || fs::exists(paths.quarantine(c))) {
        continue;
      }
      all_resolved = false;
      if (!leases.try_claim(c)) {
        leased_elsewhere.push_back(c);
        continue;
      }

      // Re-check under the lease: another worker may have finished the
      // chunk between our existence check and the claim.
      if (fs::exists(paths.done(c)) || fs::exists(paths.quarantine(c))) {
        leases.release(c);
        progress = true;
        continue;
      }

      std::vector<std::string> trail = read_attempts(paths.attempts(c));
      if (trail.size() >= spec.max_attempts) {
        // Poison: this chunk has eaten max_attempts workers without a
        // done marker.  Quarantine it (atomically -- partial diagnostics
        // help nobody) instead of becoming victim N+1.
        atomic_write_file(paths.quarantine(c),
                          quarantine_record(spec, c, opts.worker_id, trail) +
                              "\n");
        leases.release(c);
        ++report.chunks_quarantined;
        t_chunks_quarantined.add();
        VS_LOG_WARN("shard: quarantined chunk "
                    << c << " (trials [" << spec.chunk_begin(c) << ","
                    << spec.chunk_end(c) << ")) after " << trail.size()
                    << " attempts");
        progress = true;
        continue;
      }

      // Record the attempt BEFORE executing: a crash mid-chunk must leave
      // evidence, or the poison count never grows and the fleet loops.
      {
        DurableAppender attempts;
        attempts.open(paths.attempts(c), /*repair_torn_tail=*/true);
        attempts.append_line(attempt_line(opts.worker_id, trail.size() + 1));
      }
      // Crash here: the attempt record exists but no work happened -- the
      // poison count must still grow toward quarantine.
      VS_FAILPOINT("worker.attempt.after_append");

      const std::size_t begin = spec.chunk_begin(c);
      const std::size_t end = spec.chunk_end(c);
      std::vector<core::CampaignScenarioResult> results(end - begin);
      core::ExecutionPolicy policy;
      policy.jobs = opts.jobs;
      policy.deadline = opts.stop;
      const core::TaskPool pool(policy);
      bool truncated = false;
      pool.run_ordered(
          end - begin,
          [&](std::size_t i) {
            const std::size_t trial = begin + i;
            if (trial == crash_trial) ::_exit(86);  // chaos-test hook
            results[i] = runner.run_scenario(scenario_plan[trial],
                                             setup.activities, exec_options);
          },
          [&](std::size_t i) {
            // Same contiguous-commit rule as the serial runner: a
            // deadline-truncated result (and everything after it) is
            // dropped, never serialized, so shard manifests only hold
            // trials that ran to a real verdict.
            if (truncated || results[i].deadline_truncated) {
              truncated = true;
              return;
            }
            manifest.append_line(core::campaign_scenario_line(results[i]));
            ++report.trials_evaluated;
            t_trials.add();
          });

      if (truncated || opts.stop.expired()) {
        // Stop fired mid-chunk: no done marker -- the chunk stays claimable
        // and a survivor (or our next incarnation) re-runs it.
        leases.release(c);
        report.stopped_early = true;
        break;
      }

      // Crash here: every trial of the chunk is committed in the shard
      // manifest but there is no done marker -- the chunk gets re-executed
      // and the merge dedups the identical duplicate lines.
      VS_FAILPOINT("worker.chunk.before_done");
      std::ostringstream done;
      done << "{\"chunk\":" << c << ",\"worker\":\"" << opts.worker_id
           << "\",\"trials\":" << (end - begin) << "}\n";
      atomic_write_file(paths.done(c), done.str());
      // Crash here: done marker durable, lease still held -- survivors skip
      // the chunk, the stale lease just expires.
      VS_FAILPOINT("worker.chunk.after_done");
      leases.release(c);
      ++report.chunks_completed;
      t_chunks_done.add();
      progress = true;
    }
    if (report.stopped_early || all_resolved) break;
    if (!progress) {
      // Every unresolved chunk is leased by someone else: scan again as
      // soon as one is released or resolved, or after a heartbeat period
      // at the latest, when an expired lease may be reclaimable.
      wait_for_release(paths, leased_elsewhere, spec.heartbeat_s, opts.stop);
    }
  }
  if (opts.stop.expired()) report.stopped_early = true;
  manifest.close();
  set_log_worker_id(-1);
  return report;
}

}  // namespace vstack::shard
