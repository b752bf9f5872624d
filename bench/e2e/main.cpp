// bench_e2e: the repository's end-to-end benchmark binary.
//
//   bench_e2e --workload=NAME --work-dir=DIR [--seed=S] [--seconds=T]
//             [--trace=PATH]
//   bench_e2e worker --job-dir=DIR --worker-id=ID --jobs=N
//
// The first form generates the workload's inputs from the seed (untimed),
// then runs closed-loop rounds until --seconds have been spent (at least
// three), each preceded by a timed program-side set-up, checks every
// round's output, and prints one JSON object as the last line of stdout.
// Without --trace it reports the end-to-end metrics; with --trace it alternates
// untraced and traced rounds, reports the per-layer metrics (counter deltas
// and bench-owned spans around each public call), runs the probes, and
// writes the spans to PATH as Chrome trace JSON.  The second form is the
// shard worker the campaign_shards supervisor re-executes.  run.py builds
// this binary and is the command to use.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/durable_file.h"
#include "common/error.h"
#include "core/campaign_manifest.h"
#include "telemetry/telemetry.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace vstack;
using namespace vstack::e2e;

constexpr std::size_t kDurableAppends = 128;
/// A set-up shorter than this is repeated before a round until this much
/// time has passed, so that cheap set-ups (a few ms) get enough samples
/// for a steady median.
constexpr double kSetupSeconds = 0.1;

double now_s() { return telemetry::monotonic_seconds(); }

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage u {};
    VS_REQUIRE(::getrusage(who, &u) == 0, "getrusage failed");
    total +=
        static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  }
  return total;
}

/// Peak RSS [MiB]: the larger of this process's high-water mark and that
/// of its largest waited-for child.  VmHWM is read instead of ru_maxrss for
/// this process because ru_maxrss also counts the image it was exec'd from.
double peak_rss_mib() {
  double kib = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) kib = std::stod(line.substr(6));
  }
  struct rusage u {};
  VS_REQUIRE(::getrusage(RUSAGE_CHILDREN, &u) == 0, "getrusage failed");
  return std::max(kib, static_cast<double>(u.ru_maxrss)) / 1024.0;
}

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  VS_REQUIRE(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Per-layer metrics every workload reports from its traced rounds'
/// telemetry deltas (child processes included).
void add_counter_metrics(const Counts& c, std::size_t rounds, double wall_s,
                         std::size_t jobs, Metrics& m) {
  const auto get = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double n = static_cast<double>(rounds);
  const auto per_round = [&](const char* metric, const char* counter) {
    m[metric] = {get(counter) / n, "count"};
  };
  // CG and BiCGSTAB count every Krylov run, whether it came through
  // Solver::solve's ladder or the iterate_once fast path the PDN caches use.
  const double runs = get("la.cg.calls") + get("la.bicgstab.calls");
  const double iterations =
      get("la.cg.iterations") + get("la.bicgstab.iterations");
  m["la.krylov_runs"] = {runs / n, "count"};
  m["la.iterations"] = {iterations / n, "count"};
  m["la.iters_per_run"] = {ratio(iterations, runs), "ratio"};
  per_round("la.binds", "la.solver.binds");
  per_round("la.attempts_failed", "la.solve.attempts_failed");
  per_round("pdn.dc_solves", "pdn.dc.solves");
  per_round("pdn.step_cache.hits", "pdn.step_solver.cache.hits");
  per_round("pdn.step_cache.misses", "pdn.step_solver.cache.misses");
  m["pdn.step_cache.hit_ratio"] = {
      ratio(get("pdn.step_solver.cache.hits"),
            get("pdn.step_solver.cache.hits") +
                get("pdn.step_solver.cache.misses")),
      "ratio"};
  per_round("pdn.topology_rebuilds", "pdn.topology.rebuilds");
  per_round("sim.accepted_steps", "sim.transient.accepted_steps");
  per_round("sim.rejected_steps", "sim.transient.rejected_steps");
  per_round("sim.runs_truncated", "sim.transient.runs_truncated");
  m["sim.reject_ratio"] = {
      ratio(get("sim.transient.rejected_steps"),
            get("sim.transient.accepted_steps") +
                get("sim.transient.rejected_steps")),
      "ratio"};
  m["sim.steps_per_s"] = {ratio(get("sim.transient.accepted_steps"),
                                get("sim.transient.run_seconds.sum")),
                          "1/s"};
  m["core.pool_util"] = {
      ratio(get("core.task_pool.chunk_seconds.sum"),
            static_cast<double>(jobs) * wall_s),
      "ratio"};
  m["core.commit_wait_frac"] = {
      ratio(get("core.task_pool.commit_wait_seconds.sum"), wall_s), "ratio"};
  per_round("shard.workers_restarted", "shard.workers.restarted");
}

/// Replay the run's result records through the durable appender (one
/// fsynced write per line) and report its commit latency.
void durable_probe(Tracer& tracer, const std::string& path,
                   const std::vector<std::string>& lines, Metrics& m) {
  DurableAppender appender;
  appender.open(path);
  std::vector<double> ms;
  for (std::size_t i = 0; i < kDurableAppends; ++i) {
    const std::string& line = lines[i % lines.size()];
    const Span span(tracer, "durable.DurableAppender.append_line");
    const double t0 = now_s();
    appender.append_line(line);
    ms.push_back((now_s() - t0) * 1e3);
  }
  appender.close();
  std::filesystem::remove(path);
  m["durable.commit_p50_ms"] = {quantile(ms, 0.5), "ms"};
  m["durable.commit_p90_ms"] = {quantile(ms, 0.9), "ms"};
}

int run_benchmark(const CliArgs& args) {
  Options options;
  options.workload = args.get_string("workload", "");
  options.seed = args.get_size("seed", 42);
  options.work_dir = args.get_string("work-dir", "");
  options.self_exe = self_exe_path();
  VS_REQUIRE(!options.work_dir.empty(), "--work-dir=DIR is required");
  const double seconds = args.get_double("seconds", 20.0);
  const std::string trace_path = args.get_string("trace", "");
  const bool trace = !trace_path.empty();
  std::filesystem::create_directories(options.work_dir);

  const std::unique_ptr<Workload> workload = make_workload(options);
  Tracer tracer;

  const int min_rounds = trace ? 4 : 3;
  std::vector<double> setup_s;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<std::string> problems;
  std::vector<std::string> first_lines;
  std::map<std::string, double> first_results;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t untraced_items = 0;
  Counts traced_counts;
  TracedTotals traced;

  const double cpu_start = cpu_seconds();
  const double loop_start = now_s();
  double last_wall = 0.0;
  double peak_rss = 0.0;
  for (int r = 0;; ++r) {
    const bool budget_spent = now_s() - loop_start + last_wall > seconds;
    if (r >= min_rounds && budget_spent) break;
    // The set-up is repeated before every round, so its samples span the
    // run the way the rounds do; it rebuilds the state the round uses.
    tracer.set_enabled(trace);
    tracer.set_round(-1);
    const double setup_start = now_s();
    do {
      const double t0 = now_s();
      workload->setup(tracer);
      setup_s.push_back(now_s() - t0);
    } while (now_s() - setup_start < kSetupSeconds);

    const bool traced_round = trace && r % 2 == 1;
    tracer.set_enabled(traced_round);
    tracer.set_round(r);
    const Counts before = traced_round ? read_counts() : Counts{};
    const double t0 = now_s();
    RoundResult result;
    {
      const Span span(tracer, "bench.round");
      result = workload->round(tracer, r);
    }
    last_wall = now_s() - t0;
    if (traced_round) {
      add_counts(traced_counts, count_delta(read_counts(), before));
      add_counts(traced_counts, result.remote);
      ++traced.rounds;
      traced.wall_s += last_wall;
      traced.item_wall_s += result.item_wall_s;
      traced_walls.push_back(last_wall);
    } else {
      untraced_walls.push_back(last_wall);
      untraced_items += result.items;
    }
    workload->after_round(tracer);
    // Peak memory over the set-up and a fixed number of rounds, so it does
    // not depend on how many rounds the time budget allowed.
    if (r + 1 == min_rounds) peak_rss = peak_rss_mib();

    attempted += result.items;
    failed += result.failed;
    if (r == 0) {
      problems = workload->check(result);
      first_lines = result.lines;
      first_results = result.results;
    } else if (result.lines != first_lines) {
      problems.push_back("round " + std::to_string(r) +
                         " output differs from round 0 on identical inputs");
    }
  }
  const double cpu_s = cpu_seconds() - cpu_start;

  Metrics metrics;
  if (!trace) {
    double wall = 0.0;
    for (const double w : untraced_walls) wall += w;
    const double items = static_cast<double>(untraced_items);
    metrics["setup_s"] = {quantile(setup_s, 0.5), "s"};
    metrics["round_s"] = {quantile(untraced_walls, 0.5), "s"};
    metrics["items_per_s"] = {items / wall, "1/s"};
    metrics["cpu_s_per_item"] = {cpu_s / items, "s"};
    metrics["peak_rss_mib"] = {peak_rss, "MiB"};
  } else {
    add_counter_metrics(traced_counts, traced.rounds, traced.wall_s,
                        workload->jobs(), metrics);
    metrics["trace.overhead_frac"] = {
        quantile(traced_walls, 0.5) / quantile(untraced_walls, 0.5) - 1.0,
        "ratio"};
    tracer.set_enabled(true);
    tracer.set_round(-2);
    workload->probe(tracer, traced, metrics, problems);
    durable_probe(tracer, options.work_dir + "/durable-probe.jsonl",
                  first_lines, metrics);
    tracer.write_chrome_json(trace_path);

    std::vector<std::pair<double, std::string>> self;
    for (const auto& [name, s] : tracer.self_seconds()) {
      self.emplace_back(s, name);
    }
    std::sort(self.rbegin(), self.rend());
    std::cout << "self time per span name (s):\n";
    for (const auto& [s, name] : self) {
      std::printf("  %-44s %10.4f\n", name.c_str(), s);
    }
  }

  std::ostringstream json;
  json << "{\"workload\":" << json_string(options.workload)
       << ",\"seed\":" << options.seed
       << ",\"correct\":" << (problems.empty() ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"rounds\":" << untraced_walls.size() + traced_walls.size()
       << ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    json << (i ? "," : "") << json_string(problems[i]);
  }
  json << "],\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, vu] : metrics) {
    json << sep << json_string(name)
         << ":{\"value\":" << core::fmt_double_17g(vu.first)
         << ",\"unit\":" << json_string(vu.second) << "}";
    sep = ",";
  }
  json << "},\"results\":{";
  sep = "";
  for (const auto& [name, v] : first_results) {
    json << sep << json_string(name) << ":" << core::fmt_double_17g(v);
    sep = ",";
  }
  json << "},\"machine\":{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu_model\":" << json_string(cpu_model())
       << ",\"build\":" << json_string(telemetry::build_summary()) << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"workload", "seed", "seconds", "trace", "work-dir",
                        "job-dir", "worker-id", "jobs"});
    if (args.subcommand() == "worker") {
      return run_shard_worker(args.get_string("job-dir", ""),
                              args.get_string("worker-id", ""),
                              args.get_size("jobs", 1));
    }
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
