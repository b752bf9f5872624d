#include "shard/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <vector>

#include "common/durable_file.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace vstack::shard {

namespace fs = std::filesystem;

namespace {

const telemetry::Counter t_started("shard.workers.started");
const telemetry::Counter t_restarted("shard.workers.restarted");

/// Owns a pidfd: a descriptor that polls readable once its process exits.
/// Holds -1 when pidfd_open failed (Linux < 5.3); such a worker is reaped
/// on the poll_s tick instead.
class PidFd {
 public:
  PidFd() = default;
  PidFd(const PidFd&) = delete;
  PidFd& operator=(const PidFd&) = delete;
  ~PidFd() { reset(); }

  void open(pid_t pid) {
    reset();
    // Through syscall(): glibc 2.36's <sys/pidfd.h> declares pidfd_open
    // without C linkage, so a call from C++ does not link.
    fd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int get() const { return fd_; }

 private:
  int fd_ = -1;
};

struct Slot {
  pid_t pid = -1;
  PidFd exit_fd;  // readable once `pid` exits
  std::string worker_id;
  std::size_t restarts = 0;
  std::size_t consecutive_crashes = 0;
  double next_start_s = 0.0;  // monotonic_seconds gate for backoff
  bool done = false;
  bool failed = false;  // exhausted max_restarts
};

void spawn_worker(const SupervisorOptions& opts, Slot& slot) {
  std::vector<std::string> argv_s = opts.worker_command;
  argv_s.push_back("worker");
  argv_s.push_back("--job-dir=" + opts.job_dir);
  argv_s.push_back("--worker-id=" + slot.worker_id);
  argv_s.push_back("--jobs=" + std::to_string(opts.worker_jobs));
  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  VS_REQUIRE(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // execv only returns on failure; stderr is shared with the parent.
    ::perror("shard supervisor: execv");
    ::_exit(127);
  }
  slot.pid = pid;
  slot.exit_fd.open(pid);
}

}  // namespace

void SupervisorOptions::validate() const {
  VS_REQUIRE(!job_dir.empty(), "supervisor needs a job_dir");
  VS_REQUIRE(shards >= 1, "supervisor needs at least one shard");
  VS_REQUIRE(!worker_command.empty() && !worker_command.front().empty(),
             "supervisor needs a worker command");
  VS_REQUIRE(std::isfinite(poll_s) && poll_s > 0.0, "poll_s must be > 0");
  VS_REQUIRE(std::isfinite(backoff_s) && backoff_s > 0.0,
             "backoff_s must be > 0");
}

SupervisorReport run_supervised_job(const core::StudyContext& ctx,
                                    const JobSpec& spec,
                                    const SupervisorOptions& opts) {
  opts.validate();
  const JobPaths paths(opts.job_dir);
  publish_plan(paths, spec, job_config_hash(ctx, spec));

  // A previous fleet killed mid-atomic_write_file leaves orphan
  // `*.tmp.<pid>` files (health, done markers, quarantine records).  Sweep
  // them now, before any worker exists -- with workers live this would race
  // against their in-flight temp files.
  const std::size_t swept = sweep_stale_temp_files(opts.job_dir,
                                                   /*recursive=*/true);
  if (swept > 0) {
    VS_LOG_WARN("shard: swept " << swept
                                << " stale temp file(s) from " << opts.job_dir);
  }

  const std::size_t chunks = spec.chunk_count();
  const auto resolved_chunks = [&] {
    std::size_t done = 0, quarantined = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      if (fs::exists(paths.done(c))) ++done;
      else if (fs::exists(paths.quarantine(c))) ++quarantined;
    }
    return std::make_pair(done, quarantined);
  };

  SupervisorReport report;
  std::vector<Slot> slots(opts.shards);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].worker_id = "w" + std::to_string(i);
    spawn_worker(opts, slots[i]);
    ++report.workers_started;
    t_started.add();
  }

  const auto write_health = [&] {
    const auto [done, quarantined] = resolved_chunks();
    std::size_t live = 0;
    for (const Slot& s : slots) live += s.pid >= 0 ? 1 : 0;
    std::ostringstream oss;
    oss << "{\"kind\":\"vstack-shard-health\",\"chunks\":" << chunks
        << ",\"done\":" << done << ",\"quarantined\":" << quarantined
        << ",\"workers_live\":" << live
        << ",\"workers_restarted\":" << report.workers_restarted
        << ",\"metrics\":" << telemetry::metrics_json() << "}\n";
    // Health snapshots are advisory observability: a full disk or flaky
    // filesystem must not take down a supervisor mid-campaign.  Log and
    // carry on; the next interval retries.
    try {
      VS_FAILPOINT("supervisor.health.write");
      atomic_write_file(paths.health(), oss.str());
    } catch (const std::exception& e) {
      VS_LOG_WARN("shard: health write failed (continuing): " << e.what());
    }
  };

  bool terminated = false;  // SIGTERM already forwarded to the fleet
  double last_health = telemetry::monotonic_seconds();
  write_health();
  for (;;) {
    const double now = telemetry::monotonic_seconds();
    if (opts.stop.expired() && !terminated) {
      report.interrupted = true;
      terminated = true;
      for (const Slot& s : slots) {
        if (s.pid >= 0) ::kill(s.pid, SIGTERM);
      }
    }

    // Reap every exited worker (by its own pid: other children of this
    // process are not ours to collect).
    for (Slot& slot : slots) {
      if (slot.pid < 0) continue;
      int status = 0;
      if (::waitpid(slot.pid, &status, WNOHANG) != slot.pid) continue;
      slot.pid = -1;
      slot.exit_fd.reset();
      const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      // Exit 4 is the repo-wide "interrupted by signal" code; after WE sent
      // SIGTERM it is the expected way for a worker to finish.
      const bool stopped =
          terminated && WIFEXITED(status) && WEXITSTATUS(status) == 4;
      if (clean_exit || stopped) {
        slot.done = true;
        slot.consecutive_crashes = 0;
        continue;
      }
      // Crash (signal, _exit(86) poison hook, nonzero): restart with
      // exponential backoff unless the slot is exhausted.
      ++slot.consecutive_crashes;
      if (slot.restarts >= opts.max_restarts) {
        slot.failed = true;
        ++report.failed_slots;
        VS_LOG_ERROR("shard: worker "
                     << slot.worker_id << " exhausted " << opts.max_restarts
                     << " restarts; abandoning the slot");
        continue;
      }
      const double factor =
          static_cast<double>(1u << (slot.consecutive_crashes > 4
                                         ? 4
                                         : slot.consecutive_crashes - 1));
      slot.next_start_s = now + opts.backoff_s * factor;
      VS_LOG_WARN("shard: worker " << slot.worker_id << " died ("
                                   << (WIFSIGNALED(status)
                                           ? "signal " +
                                                 std::to_string(WTERMSIG(status))
                                           : "exit " + std::to_string(
                                                           WEXITSTATUS(status)))
                                   << "); restart in "
                                   << opts.backoff_s * factor << " s");
    }

    // Restart due slots (never after stop: the fleet is draining).
    if (!terminated) {
      for (Slot& s : slots) {
        if (s.pid < 0 && !s.done && !s.failed && now >= s.next_start_s) {
          spawn_worker(opts, s);
          ++s.restarts;
          ++report.workers_restarted;
          t_restarted.add();
        }
      }
    }

    if (opts.health_interval_s > 0.0 &&
        now - last_health >= opts.health_interval_s) {
      write_health();
      last_health = now;
    }

    // Fleet drained?  (A failed slot's chunks are still reachable by the
    // other slots via lease expiry, so "drained" is purely about pids.)
    // If not, wait for the first worker exit, the earliest restart gate or
    // poll_s, whichever comes first.
    bool any_live = false;
    bool any_pending = false;
    std::vector<pollfd> exits;
    double wait_s = opts.poll_s;
    const double wait_from = telemetry::monotonic_seconds();
    for (const Slot& s : slots) {
      any_live = any_live || s.pid >= 0;
      any_pending = any_pending || (!s.done && !s.failed);
      if (s.pid >= 0 && s.exit_fd.get() >= 0) {
        exits.push_back({s.exit_fd.get(), POLLIN, 0});
      } else if (s.pid < 0 && !s.done && !s.failed && !terminated) {
        wait_s = std::min(wait_s, std::max(0.0, s.next_start_s - wait_from));
      }
    }
    if (!any_live && (terminated || !any_pending)) break;
    // The next pass reaps whichever worker exited; EINTR (a stop signal)
    // only brings that pass sooner.
    ::poll(exits.data(), exits.size(),
           static_cast<int>(std::min(std::ceil(wait_s * 1e3), 1e9)));
  }

  write_health();
  // Crash here: every chunk is resolved but merged.jsonl was never
  // produced -- re-running the supervisor (or `vstack_cli merge`) must
  // complete the job from the shard manifests alone.
  VS_FAILPOINT("supervisor.before_merge");
  report.merge = merge_job(ctx, opts.job_dir);
  return report;
}

}  // namespace vstack::shard
