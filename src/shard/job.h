// Shard job descriptions: the shared contract between the supervisor, the
// worker fleet, and the merge step.
//
// A "job" is one campaign split into fixed chunks of trial indices, run by
// N independent worker PROCESSES against a shared job directory:
//
//   <job_dir>/plan.json            the job spec + config hash (atomic file)
//   <job_dir>/shards/<w>.jsonl     per-worker campaign manifests (the exact
//                                  line format of core/campaign_manifest.h)
//   <job_dir>/leases/chunk-N.lease exclusive claim files (mtime = heartbeat)
//   <job_dir>/attempts/chunk-N.jsonl  durable attempt trail per chunk
//   <job_dir>/done/chunk-N.json    commit markers (atomic)
//   <job_dir>/quarantine/chunk-N.json  poison-chunk diagnostics (atomic)
//   <job_dir>/merged.jsonl         merge output (atomic)
//   <job_dir>/health.json          supervisor heartbeat snapshot
//
// The spec is deliberately FLAT (no nested config files): every field a
// worker needs to reconstruct the campaign bit-identically travels in
// plan.json, and the config hash (core::campaign_config_hash over the
// reconstructed campaign) guards against drift -- a worker whose binary
// reconstructs a different campaign refuses to run rather than silently
// polluting the shard manifests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/study.h"

namespace vstack::shard {

struct JobSpec {
  // Network shape.
  bool stacked = true;
  std::size_t layers = 8;
  std::size_t grid = 16;
  double imbalance = 0.8;

  // Monte Carlo shape.
  std::size_t trials = 8;
  std::size_t faults_per_trial = 2;
  std::size_t converter_faults_per_trial = 32;  // front ends: stacked ? 32 : 0
  std::uint64_t seed = 42;

  // Transient replay knobs.
  double duration_s = 400e-9;
  double fault_time_s = 50e-9;
  double scenario_timeout_s = 0.0;  // 0 keeps shards bit-reproducible
  std::size_t max_retries = 1;
  double retry_relax = 10.0;

  // Sharding knobs.
  std::size_t chunk = 1;          // trials per lease; 1 = finest quarantine
  std::size_t max_attempts = 3;   // attempts before a chunk is quarantined
  double lease_expiry_s = 30.0;   // heartbeat silence before reclamation
  double heartbeat_s = 1.0;       // lease mtime refresh period; also the
                                  // longest an idle worker waits before it
                                  // scans for claimable chunks again

  void validate() const;

  std::size_t chunk_count() const;
  /// Chunk c covers trials [chunk_begin(c), chunk_end(c)).
  std::size_t chunk_begin(std::size_t c) const { return c * chunk; }
  std::size_t chunk_end(std::size_t c) const;
  /// The chunk owning trial t.
  std::size_t chunk_of(std::size_t trial) const { return trial / chunk; }
};

/// Everything CampaignRunner needs.  make_campaign is the one recipe for a
/// synthesized-grid campaign: `vstack_cli campaign` (serial, --compare and
/// --shards), the spool service (in process and sharded) and every shard
/// worker build theirs from a JobSpec here, so a shard fleet's merged
/// manifest is byte-identical to the serial run's by construction.  The
/// caller sets only options.manifest_path and options.execution.
struct CampaignSetup {
  pdn::StackupConfig config;
  std::vector<double> activities;
  core::CampaignOptions options;
};

CampaignSetup make_campaign(const core::StudyContext& ctx,
                            const JobSpec& spec);

/// core::campaign_config_hash of the reconstructed campaign: the identity
/// stored in plan.json and verified by every worker and the merge.
std::uint64_t job_config_hash(const core::StudyContext& ctx,
                              const JobSpec& spec);

// ---------------------------------------------------------------------------
// Job directory layout.

struct JobPaths {
  std::string root;

  explicit JobPaths(std::string root_dir) : root(std::move(root_dir)) {}

  std::string plan() const { return root + "/plan.json"; }
  std::string shards_dir() const { return root + "/shards"; }
  std::string leases_dir() const { return root + "/leases"; }
  std::string attempts_dir() const { return root + "/attempts"; }
  std::string done_dir() const { return root + "/done"; }
  std::string quarantine_dir() const { return root + "/quarantine"; }

  std::string shard_manifest(const std::string& worker_id) const {
    return shards_dir() + "/" + worker_id + ".jsonl";
  }
  std::string lease(std::size_t c) const {
    return leases_dir() + "/chunk-" + std::to_string(c) + ".lease";
  }
  std::string attempts(std::size_t c) const {
    return attempts_dir() + "/chunk-" + std::to_string(c) + ".jsonl";
  }
  std::string done(std::size_t c) const {
    return done_dir() + "/chunk-" + std::to_string(c) + ".json";
  }
  std::string quarantine(std::size_t c) const {
    return quarantine_dir() + "/chunk-" + std::to_string(c) + ".json";
  }
  std::string merged() const { return root + "/merged.jsonl"; }
  std::string health() const { return root + "/health.json"; }

  /// mkdir -p the whole layout (idempotent).
  void create_dirs() const;
};

// ---------------------------------------------------------------------------
// plan.json: one flat JSON line, written atomically.

std::string plan_line(const JobSpec& spec, std::uint64_t config_hash);
bool parse_plan_line(const std::string& line, JobSpec& spec,
                     std::uint64_t& config_hash);

/// Write plan.json if absent; when one already exists (a resumed job), it
/// must describe the SAME job (field-for-field + config hash) or this
/// throws -- reusing a job directory across different campaigns is the
/// unrecoverable operator error this guards.
void publish_plan(const JobPaths& paths, const JobSpec& spec,
                  std::uint64_t config_hash);

/// Load + parse plan.json; throws when missing or malformed.
JobSpec load_plan(const JobPaths& paths, std::uint64_t& config_hash);

}  // namespace vstack::shard
