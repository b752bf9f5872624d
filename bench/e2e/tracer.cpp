#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace vstack::e2e {

Counts read_counts() {
  const telemetry::MetricsSnapshot snap = telemetry::snapshot();
  Counts out;
  for (const auto& c : snap.counters) out[c.name] = c.value;
  for (const auto& h : snap.histograms) {
    out[h.name + ".sum"] = h.sum;
    out[h.name + ".count"] = static_cast<double>(h.count);
  }
  return out;
}

Counts count_delta(const Counts& after, const Counts& before) {
  Counts out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const double d = value - (it == before.end() ? 0.0 : it->second);
    if (d != 0.0) out[name] = d;
  }
  return out;
}

void add_counts(Counts& a, const Counts& b) {
  for (const auto& [name, value] : b) a[name] += value;
}

double quantile(std::vector<double> v, double q) {
  VS_REQUIRE(!v.empty(), "quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::size_t Tracer::open(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = stack_.empty() ? 0 : spans_[stack_.back().index].id;
  span.round = round_;
  stack_.push_back({spans_.size(), read_counts()});
  span.start_s = telemetry::monotonic_seconds();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::size_t id) {
  const double end = telemetry::monotonic_seconds();
  VS_REQUIRE(!stack_.empty() && spans_[stack_.back().index].id == id,
             "bench spans must close in LIFO order");
  SpanRecord& span = spans_[stack_.back().index];
  span.end_s = end;
  span.deltas = count_delta(read_counts(), stack_.back().at_start);
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size() + 1, 0.0);
  for (const auto& s : spans_) child[s.parent] += s.end_s - s.start_s;
  std::map<std::string, double> out;
  for (const auto& s : spans_) {
    out[s.name] += (s.end_s - s.start_s) - child[s.id];
  }
  return out;
}

double Tracer::round_seconds(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name && s.round >= 0) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  VS_REQUIRE(static_cast<bool>(out), "cannot write trace '" + path + "'");
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  char buf[64];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string cat = s.name.substr(0, s.name.find('.'));
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6);
    out << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"round\":" << s.round;
    for (const auto& [name, value] : s.deltas) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << ",\"" << name << "\":" << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  VS_REQUIRE(static_cast<bool>(out), "short write to trace '" + path + "'");
}

}  // namespace vstack::e2e
