// perfbench_driver: runs one benchmark workload for a fixed time, checks
// every operation's output, and prints the workload's metrics.
//
//   perfbench_driver --workload suite|mix|serve --seed N --seconds S
//                    --trace 0|1 [--expected FILE] [--work-dir DIR]
//                    [--record FILE]
//
// Run from the repository root: the golden plans are read from
// tests/golden.
//
// Set-up runs at least three times. Passes then run while the next one is
// expected to end within S seconds (at least one). Set-up and pass times
// are reported as the fastest of their repetitions (see typical_seconds).
// An untraced run reports the end-to-end metrics. A traced run alternates
// untraced and traced passes, probes the layers below a pass, writes a
// Chrome trace file into the work directory and reports the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
// Exit status 1 (and no result line) means the benchmark itself could not
// run: bad arguments, unreadable inputs, or no pass that completed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hh"
#include "trace.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 1000;
constexpr double kSetupBudgetS = 0.25;
constexpr std::size_t kMaxTraceEvents = 200000;
constexpr std::size_t kMaxReasons = 10;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected = "perfbench/expected.txt";
  std::string work_dir = ".bench_build/work";
  std::string record;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--record") {
      args.record = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// The timing statistic of repeated identical work: the fastest
/// repetition. Other tenants of a shared host only ever add time, in
/// bursts that last from one pass to most of a run, so the fastest
/// repetition is the estimate of the program's own cost that they move
/// least (README.md has the measurements behind this choice).
double typical_seconds(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

/// Per-part pass times: times[p] holds part p's seconds in every pass.
using PartTimes = std::vector<std::vector<double>>;

void add_pass(PartTimes& times, const std::vector<double>& parts) {
  times.resize(std::max(times.size(), parts.size()));
  for (std::size_t p = 0; p < parts.size(); ++p) times[p].push_back(parts[p]);
}

/// A pass's time: the sum of its parts' typical times, so a burst of host
/// noise in one part of a pass does not count against the other parts.
double pass_seconds(const PartTimes& times) {
  double total = 0.0;
  for (const std::vector<double>& part : times) total += typical_seconds(part);
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double get(const std::map<std::string, double>& values,
           const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

/// Per-worker busy time inside the executor fan-outs of the traced passes:
/// each "engine.map" span's "engine.unit" children, grouped by thread.
/// Threads are numbered by first unit within each fan-out, since the
/// executor starts fresh threads per fan-out.
void worker_metrics(const std::vector<SpanRecord>& spans, double passes,
                    Metrics& out) {
  std::vector<double> busy_ns;
  double window_ns = 0.0;
  for (std::size_t m = 0; m < spans.size(); ++m) {
    if (std::string(spans[m].name) != "engine.map") continue;
    window_ns += static_cast<double>(spans[m].end_ns - spans[m].start_ns);
    std::vector<std::uint64_t> threads;  // in order of first unit
    for (const SpanRecord& unit : spans) {
      if (unit.parent != static_cast<std::int64_t>(m)) continue;
      auto it = std::find(threads.begin(), threads.end(), unit.thread);
      const std::size_t slot = static_cast<std::size_t>(it - threads.begin());
      if (it == threads.end()) threads.push_back(unit.thread);
      if (busy_ns.size() <= slot) busy_ns.resize(slot + 1, 0.0);
      busy_ns[slot] += static_cast<double>(unit.end_ns - unit.start_ns);
    }
  }
  double busy_min = 0.0, busy_max = 0.0, idle_min = 0.0, idle_max = 0.0;
  if (!busy_ns.empty() && window_ns > 0.0) {
    const auto [lo, hi] = std::minmax_element(busy_ns.begin(), busy_ns.end());
    busy_min = 100.0 * *lo / window_ns;
    busy_max = 100.0 * *hi / window_ns;
    idle_min = (window_ns - *hi) / 1e9 / passes;
    idle_max = (window_ns - *lo) / 1e9 / passes;
  }
  out["engine.worker_busy_pct_min"] = {busy_min, "%"};
  out["engine.worker_busy_pct_max"] = {busy_max, "%"};
  out["engine.worker_idle_s_min"] = {idle_min, "s"};
  out["engine.worker_idle_s_max"] = {idle_max, "s"};
}

/// The workload's own figures: deterministic outcomes for the seed and host
/// throughputs that apply to one workload only (0 where they do not apply).
void workload_figures(const std::map<std::string, double>& values,
                      double pass_s, Metrics& out) {
  out["speedup_nt"] = {get(values, "speedup_nt"), "ratio"};
  out["ws_nt"] = {get(values, "ws_nt"), "ratio"};
  out["traffic_nt_pct"] = {get(values, "traffic_nt_pct"), "%"};
  out["p50_ticks"] = {get(values, "p50_ticks"), "ticks"};
  out["p99_ticks"] = {get(values, "p99_ticks"), "ticks"};
  out["latency_samples"] = {get(values, "latency_samples"), "count"};
  out["degraded_pct"] = {get(values, "degraded_pct"), "%"};
  out["sim_refs_per_s"] = {get(values, "sim.refs") / pass_s, "1/s"};
  out["responses_per_s"] = {get(values, "responses") / pass_s, "1/s"};
}

/// Per-layer metrics of a traced run. Span times of the passes are per
/// traced pass; probe times are for the one probe.
Metrics per_layer_metrics(const Tracer& tracer, double passes,
                          const std::map<std::string, double>& values,
                          double untraced_pass_s, double traced_pass_s) {
  const std::map<std::string, SpanTotals> totals = tracer.totals();
  const auto span = [&totals](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto total_ms = [&span](const std::string& name) {
    return span(name).total_ms;
  };
  const auto self_ms = [&span](const std::string& name) {
    return span(name).self_ms;
  };
  const auto per_s = [](double work, double ms) {
    return ms > 0.0 ? work / (ms / 1e3) : 0.0;
  };

  Metrics out;
  out["workloads.cursor_refs_per_s"] = {
      per_s(get(values, "probe.cursor_refs"), total_ms("workloads.cursor")),
      "1/s"};
  for (const char* stage : {"sample", "validate", "delta", "statstack",
                            "mddli", "stride", "bypass", "insert"}) {
    const std::string name = std::string("engine.stage_") + stage;
    out[name + "_ms"] = {total_ms(name), "ms"};
  }
  out["core.sampler_refs_per_s"] = {
      per_s(get(values, "probe.sampler_refs"),
            total_ms("engine.stage_sample")),
      "1/s"};
  out["engine.optimize_ms"] = {total_ms("engine.optimize"), "ms"};
  worker_metrics(tracer.spans(), passes, out);

  out["analysis.report_ms"] = {total_ms("analysis.report") / passes, "ms"};
  out["analysis.evaluate_benchmark_ms"] = {
      total_ms("analysis.evaluate_benchmark") / passes, "ms"};
  out["analysis.evaluate_mix_ms"] = {
      total_ms("analysis.evaluate_mix") / passes, "ms"};

  const double sim_refs = get(values, "sim.refs");
  const double single_ms = total_ms("sim.run_single") / passes;
  const double mix_ms = total_ms("sim.run_mix") / passes;
  out["sim.run_single_ms"] = {single_ms, "ms"};
  out["sim.single_refs_per_s"] = {per_s(single_ms > 0 ? sim_refs : 0, single_ms),
                                  "1/s"};
  out["sim.run_mix_ms"] = {mix_ms, "ms"};
  out["sim.mix_refs_per_s"] = {per_s(mix_ms > 0 ? sim_refs : 0, mix_ms), "1/s"};
  for (const char* name : {"sim.l1_miss_ratio", "core.plan_yield"}) {
    out[name] = {get(values, name), "ratio"};
  }
  for (const char* name :
       {"sim.dram_lines", "sim.sw_prefetches", "core.reuse_samples",
        "core.stride_samples", "core.delinquent_loads", "core.plans",
        "core.plans_nt"}) {
    out[name] = {get(values, name), "count"};
  }
  for (const char* name :
       {"sim.sw_useless_pct", "sim.hw_useless_pct", "sim.late_prefetch_pct"}) {
    out[name] = {get(values, name), "%"};
  }
  out["sim.memory_stall_cycles"] = {get(values, "sim.memory_stall_cycles"),
                                    "cycles"};

  out["serve.step_ms"] = {total_ms("serve.run_serve_sim") / passes, "ms"};
  out["serve.solver_ms"] = {total_ms("serve.solve") / passes, "ms"};
  out["serve.self_ms"] = {self_ms("serve.run_serve_sim") / passes, "ms"};
  for (const char* name : {"serve.solves", "serve.cache_hits", "serve.shed",
                           "serve.max_queue_depth"}) {
    out[name] = {get(values, name), "count"};
  }
  out["serve.hit_ratio"] = {get(values, "serve.hit_ratio"), "ratio"};

  workload_figures(values, untraced_pass_s, out);
  out["pass_s"] = {untraced_pass_s, "s"};
  out["trace.pass_s"] = {traced_pass_s, "s"};
  out["trace.overhead_pct"] = {
      100.0 * (traced_pass_s / untraced_pass_s - 1.0), "%"};
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string outcomes_json(const std::map<std::string, double>& outcomes) {
  std::string out = "{";
  for (const auto& [name, value] : outcomes) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + json_number(value);
  }
  return out + "}";
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  const Expected expected = Expected::load(args.expected);
  Checker checker(expected);

  // Set-up is repeated and reported as its typical time: at least three
  // times, and for cheap set-ups until a quarter second has been spent on it.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    workload.reset();
    const Clock::time_point start = Clock::now();
    workload = make_workload(args.workload, args.seed, "tests/golden");
    setup_s.push_back(seconds_since(start));
    setup_total += setup_s.back();
  }

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  std::vector<double> untraced_s, traced_s;  // whole passes, for the display
  PartTimes untraced_parts, traced_parts;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  const auto note = [&failures](std::string reason) {
    if (failures.size() < kMaxReasons) failures.push_back(std::move(reason));
  };
  std::map<std::string, double> outcomes;
  double work = 0.0;
  const Clock::time_point start = Clock::now();
  const int min_passes = args.trace ? 2 : 1;
  for (int pass = 0;; ++pass) {
    // Stop before a pass that would end past the time limit.
    const double elapsed = seconds_since(start);
    const double typical = std::max(median(untraced_s), median(traced_s));
    if (pass >= min_passes && elapsed + typical > args.seconds) break;
    // A traced run alternates untraced and traced passes, so both see the
    // same machine state and their ratio is the tracing overhead.
    const bool traced = args.trace && pass % 2 == 1;
    const Clock::time_point pass_start = Clock::now();
    try {
      workload->run_pass(traced ? tracer.get() : nullptr);
    } catch (const std::exception& e) {
      attempted += workload->ops_per_pass();
      failed += workload->ops_per_pass();
      note(std::string("pass threw: ") + e.what());
      continue;
    }
    const double seconds = seconds_since(pass_start);
    (traced ? traced_s : untraced_s).push_back(seconds);
    std::vector<double> parts = workload->part_seconds();
    if (parts.empty()) parts = {seconds};
    add_pass(traced ? traced_parts : untraced_parts, parts);

    PassReport report = workload->check_pass(checker);
    if (!outcomes.empty() && report.outcomes != outcomes) {
      report.failed = report.attempted;
      report.failures.push_back("simulated outcomes changed between passes");
    }
    outcomes = report.outcomes;
    work = report.work;
    attempted += report.attempted;
    failed += report.failed;
    for (std::string& reason : report.failures) note(std::move(reason));
  }
  if (untraced_s.empty() || (args.trace && traced_s.empty())) {
    for (const std::string& reason : failures) {
      std::fprintf(stderr, "FAIL %s\n", reason.c_str());
    }
    std::fprintf(stderr, "perfbench: no pass completed\n");
    return 1;
  }

  const double pass_s = pass_seconds(untraced_parts);
  Metrics metrics;
  if (tracer != nullptr) {
    std::map<std::string, double> values = outcomes;
    workload->probe(*tracer, values);
    metrics = per_layer_metrics(*tracer, static_cast<double>(traced_s.size()),
                                values, pass_s, pass_seconds(traced_parts));
    // One file per workload, overwritten by each traced run of it.
    const std::string trace_path =
        args.work_dir + "/trace-" + args.workload + ".json";
    if (!tracer->write_chrome_trace(trace_path, kMaxTraceEvents)) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    std::printf("trace file: %s\n", trace_path.c_str());
  } else {
    metrics["setup_s"] = {typical_seconds(setup_s), "s"};
    metrics["work_per_s"] = {work / pass_s, "1/s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }

  if (!args.record.empty()) {
    std::ofstream out(args.record);
    for (const auto& [key, value] : checker.seen()) {
      out << key << ' ' << value << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + args.record);
  }

  for (const std::string& reason : failures) {
    std::fprintf(stderr, "FAIL %s\n", reason.c_str());
  }
  std::printf("perfbench %s seed=%llu trace=%d: %zu untraced + %zu traced "
              "passes, %llu operations, %llu failed\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              untraced_s.size(), traced_s.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::printf("simulated %s\n", outcomes_json(outcomes).c_str());
  std::printf("set-up seconds: %zu runs, min %.6g, median %.6g, max %.6g\n",
              setup_s.size(), typical_seconds(setup_s), median(setup_s),
              *std::max_element(setup_s.begin(), setup_s.end()));
  for (const auto* times : {&untraced_s, &traced_s}) {
    if (times->empty()) continue;
    std::printf("%s pass seconds:", times == &traced_s ? "traced" : "untraced");
    for (double t : *times) std::printf(" %.4f", t);
    std::printf("\n");
  }
  // Untraced runs also show the workload's own figures, which are not in
  // the result line (they are per-layer metrics of the traced run).
  Metrics shown = metrics;
  if (tracer == nullptr) {
    workload_figures(outcomes, pass_s, shown);
    shown["pass_s"] = {pass_s, "s"};
  }
  for (const auto& [name, metric] : shown) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
