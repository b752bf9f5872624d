#include "service/request.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/text_input.h"

namespace vstack::service {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::Campaign: return "campaign";
    case RequestKind::Contingency: return "contingency";
    case RequestKind::Sweep: return "sweep";
    case RequestKind::RideThrough: return "ride-through";
  }
  return "?";
}

std::size_t RequestSpec::estimated_bytes(std::size_t resolved_jobs) const {
  // Grid nodes per layer plus converter/rail bookkeeping; ~1 KiB per node
  // covers the CSR matrix (~5 nnz/row), the ILU factor, and the handful of
  // solver vectors with headroom.  Sweeps build a model per sweep point but
  // only `jobs` of them live at once, same bound.
  const std::size_t nodes = grid * grid * layers + 64 * layers;
  return nodes * 1024 * std::max<std::size_t>(1, resolved_jobs);
}

void RequestSpec::validate() const {
  VS_REQUIRE(!id.empty(), "request id must not be empty");
  VS_REQUIRE(layers >= 1 && layers <= 64, "layers must lie in [1, 64]");
  VS_REQUIRE(grid >= 2 && grid <= 512, "grid must lie in [2, 512]");
  VS_REQUIRE(std::isfinite(imbalance) && imbalance >= 0.0 && imbalance <= 1.0,
             "imbalance must lie in [0, 1]");
  VS_REQUIRE(trials >= 1 && trials <= 100000,
             "trials must lie in [1, 100000]");
  VS_REQUIRE(duration_s > 0.0, "duration_s must be positive");
  VS_REQUIRE(deadline_s >= 0.0, "deadline_s must be >= 0");
  VS_REQUIRE(jobs <= 4096, "jobs is bounded (<= 4096)");
  if (kind == RequestKind::Sweep) {
    VS_REQUIRE(figure == "5a" || figure == "5b" || figure == "6" ||
                   figure == "7" || figure == "8",
               "figure must be one of 5a|5b|6|7|8");
  }
  if (kind == RequestKind::RideThrough || kind == RequestKind::Campaign) {
    VS_REQUIRE(fault_time_s >= 0.0 && fault_time_s < duration_s,
               "fault_time_s must lie inside the transient horizon");
  }
}

RequestSpec parse_request(const std::string& source_text,
                          const std::string& id,
                          const std::string& source_name) {
  RequestSpec spec;
  spec.id = id;
  bool have_kind = false;

  std::istringstream in(source_text);
  text::KeyValueReader kv(in, "service request " + source_name + " line ");
  while (kv.next()) {
    const std::string& key = kv.key();
    const std::string value(kv.value());
    const std::string v = text::lower(value);
    if (key == "id") {
      if (value != id) {
        kv.fail("id '" + value + "' does not match the spool name '" + id +
                "'");
      }
    } else if (key == "kind") {
      if (v == "campaign") spec.kind = RequestKind::Campaign;
      else if (v == "contingency") spec.kind = RequestKind::Contingency;
      else if (v == "sweep") spec.kind = RequestKind::Sweep;
      else if (v == "ride-through") spec.kind = RequestKind::RideThrough;
      else kv.fail("unknown kind '" + value +
                   "' (campaign|contingency|sweep|ride-through)");
      have_kind = true;
    } else if (key == "topology") {
      if (v == "stacked") spec.stacked = true;
      else if (v == "regular") spec.stacked = false;
      else kv.fail("unknown topology '" + value + "' (stacked|regular)");
    } else if (key == "layers") {
      spec.layers = kv.count(1, 64);
    } else if (key == "grid") {
      spec.grid = kv.count(2, 512);
    } else if (key == "imbalance") {
      spec.imbalance = kv.number();
    } else if (key == "trials") {
      spec.trials = kv.count(1, 100000);
    } else if (key == "faults") {
      spec.faults_per_trial = kv.count(0, 1024);
    } else if (key == "seed") {
      spec.seed = kv.count(0, 1ull << 62);
    } else if (key == "duration_s") {
      spec.duration_s = kv.number();
      if (spec.duration_s <= 0.0) {
        kv.fail("key 'duration_s' must be positive");
      }
    } else if (key == "mode") {
      if (v == "mc" || v == "monte-carlo") spec.monte_carlo = true;
      else if (v == "n-1") spec.monte_carlo = false;
      else kv.fail("unknown mode '" + value + "' (mc|n-1)");
    } else if (key == "figure") {
      spec.figure = v;
    } else if (key == "fault_level") {
      spec.fault_level = kv.count(0, 63);
    } else if (key == "keep") {
      spec.keep = kv.count(0, 100000);
    } else if (key == "fault_time_s") {
      spec.fault_time_s = kv.number();
    } else if (key == "deadline_s") {
      spec.deadline_s = kv.number();
      if (spec.deadline_s < 0.0) kv.fail("key 'deadline_s' must be >= 0");
    } else if (key == "jobs") {
      spec.jobs = kv.count(0, 4096);
    } else {
      kv.fail("unknown key '" + key + "'");
    }
  }

  // Report end-of-file complaints past the last line.
  if (!have_kind) {
    VS_FAIL(kv.lines().where(kv.lines().line_no() + 1) +
            "missing required key 'kind'");
  }
  try {
    spec.validate();
  } catch (const Error& e) {
    VS_FAIL("service request " + source_name + ": " + e.what());
  }
  return spec;
}

std::string write_request(const RequestSpec& spec) {
  std::ostringstream oss;
  oss << "id = " << spec.id << "\n"
      << "kind = " << to_string(spec.kind) << "\n"
      << "topology = " << (spec.stacked ? "stacked" : "regular") << "\n"
      << "layers = " << spec.layers << "\n"
      << "grid = " << spec.grid << "\n"
      << "imbalance = " << text::format_number(spec.imbalance) << "\n"
      << "trials = " << spec.trials << "\n"
      << "faults = " << spec.faults_per_trial << "\n"
      << "seed = " << spec.seed << "\n"
      << "duration_s = " << text::format_number(spec.duration_s) << "\n"
      << "mode = " << (spec.monte_carlo ? "mc" : "n-1") << "\n"
      << "figure = " << spec.figure << "\n"
      << "fault_level = " << spec.fault_level << "\n"
      << "keep = " << spec.keep << "\n"
      << "fault_time_s = " << text::format_number(spec.fault_time_s) << "\n"
      << "deadline_s = " << text::format_number(spec.deadline_s) << "\n"
      << "jobs = " << spec.jobs << "\n";
  return oss.str();
}

}  // namespace vstack::service
