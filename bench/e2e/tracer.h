// Bench-owned tracing for the end-to-end benchmark.
//
// Spans are recorded by the benchmark itself around each public call it
// makes into a layer (SweepRunner::fig6, CampaignRunner::run, pgio::validate,
// la::Solver, ...), never inside the library.  Each span carries the
// telemetry counter deltas taken at its own boundaries, so a ratio such as
// the step-cache hit ratio is measured where the work happens.  Spans stay
// in memory and are written as Chrome trace_event JSON when the run ends.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace vstack::e2e {

/// Flat view of the process telemetry registry: every counter by name, plus
/// "<name>.sum" and "<name>.count" for every histogram.
using Counts = std::map<std::string, double>;

Counts read_counts();

/// after - before, keeping only entries that moved.
Counts count_delta(const Counts& after, const Counts& before);

/// a += b, entry by entry.
void add_counts(Counts& a, const Counts& b);

/// Linearly interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> values, double q);

struct SpanRecord {
  std::string name;
  std::size_t id = 0;
  std::size_t parent = 0;  // 0 = no parent
  int round = 0;           // -1 = set-up, -2 = probes after the rounds
  double start_s = 0.0;
  double end_s = 0.0;
  Counts deltas;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_round(int round) { round_ = round; }

  std::size_t open(const std::string& name);
  void close(std::size_t id);

  /// Self time per span name: each span's duration minus the part its
  /// direct children cover, summed over every span of that name.
  std::map<std::string, double> self_seconds() const;

  /// Summed duration of the spans with this name recorded in rounds (set-up
  /// and probe spans excluded).
  double round_seconds(const std::string& name) const;

  void write_chrome_json(const std::string& path) const;

 private:
  struct OpenSpan {
    std::size_t index = 0;
    Counts at_start;
  };
  bool enabled_ = false;
  int round_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<OpenSpan> stack_;
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : 0) {}
  ~Span() {
    if (id_ != 0) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::size_t id_;
};

}  // namespace vstack::e2e
