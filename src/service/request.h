// Analysis-request descriptions for the campaign service (vstack_cli serve).
//
// A request is a plain-text key = value file (text::KeyValueReader, as for
// pdn/config_io.h: '#'/';' comments, unknown keys are errors, every
// rejection carries its line number) describing ONE analysis to run:
//
//   # transient N-k campaign on a 4-layer stack
//   kind = campaign            ; campaign | contingency | sweep | ride-through
//   topology = stacked         ; stacked | regular
//   layers = 4
//   grid = 8
//   imbalance = 0.8
//   trials = 8
//   seed = 2015
//   deadline_s = 30            ; per-request wall clock; 0 = unlimited
//   jobs = 1                   ; worker threads; 0 = server default
//
// The request id is the file's basename (without the .req extension); an
// optional `id` key must agree with it, so a misdirected copy of a spool
// file fails loudly instead of answering under the wrong name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace vstack::service {

enum class RequestKind { Campaign, Contingency, Sweep, RideThrough };

const char* to_string(RequestKind kind);

struct RequestSpec {
  std::string id;
  RequestKind kind = RequestKind::Campaign;

  // Stack shape (all kinds).
  bool stacked = true;
  std::size_t layers = 4;
  std::size_t grid = 8;
  double imbalance = 0.8;

  // Monte Carlo shape (campaign, contingency).
  std::size_t trials = 8;
  std::size_t faults_per_trial = 2;
  std::uint64_t seed = 2015;

  // Campaign / ride-through transient horizon [s].
  double duration_s = 400e-9;

  // Contingency mode: seeded Monte Carlo N-k (default) or deterministic N-1.
  bool monte_carlo = true;

  // Sweep figure: 5a | 5b | 6 | 7 | 8.
  std::string figure = "5a";

  // Ride-through demo fault: surviving phases on the struck rail and when
  // the bank sticks off.  fault_level 0 = auto (min(3, layers - 1)).
  std::size_t fault_level = 0;
  std::size_t keep = 32;
  double fault_time_s = 0.0;  // 0 = auto (half the horizon)

  // Execution shape.
  double deadline_s = 0.0;  // per-request wall clock; 0 = unlimited
  std::size_t jobs = 0;     // 0 = server default

  /// Rough peak working-set estimate [bytes] for admission control: model
  /// storage scales with node count, and parallel scenario evaluation
  /// keeps one model per worker.
  std::size_t estimated_bytes(std::size_t resolved_jobs) const;

  void validate() const;
};

/// Parse a request file.  `id` is the spool-derived request id (file
/// basename); `source_name` labels error messages.  Throws vstack::Error
/// with "service request <source> line N: ..." on any malformed or unknown
/// key, and when an explicit `id` key disagrees with `id`.
RequestSpec parse_request(const std::string& text, const std::string& id,
                          const std::string& source_name);

/// Serialize back to the same format, every value exactly (test aid and
/// template generator for `vstack_cli serve --example`).
std::string write_request(const RequestSpec& spec);

}  // namespace vstack::service
