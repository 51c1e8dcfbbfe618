// Engine scaling — wall-clock scaling of the analysis engine's
// deterministic executor on the Figure 4 suite, for both scheduler
// backends, plus the determinism gate that makes the parallelism safe to
// use anywhere: artifacts at every worker count, under either backend,
// must be byte-identical to the serial path.
//
// For each backend (forkjoin, steal) and worker count (1, 2, 4, 8, 16)
// the full suite is re-analyzed from a cold PlanCache per machine, fanned
// out by evaluate_suite: per benchmark one profile replay, five simulated
// runs (the Baseline run also gives Δ), and the three optimizes solved
// from that profile and that run. The pass then re-solves each benchmark
// with engine::run_optimize, which samples and simulates its own Baseline
// again, and serializes every report into a per-pass fingerprint. Steal
// and prefetch-hint counters are reported per pass (observability only —
// they vary with scheduling; the artifacts never do).
//
// Gates (exit 1 on violation):
//   * 0-diff: every fingerprint — both backends, every worker count —
//     equals the serial forkjoin one. Always enforced.
//   * speedup >= 2.5x at 4 workers (forkjoin, the long-standing gate) —
//     enforced only when the host has >= 4 hardware threads and the bench
//     is not in smoke mode.
//   * steal >= 0.95x forkjoin at 8 and 16 workers — enforced only when
//     the host has >= 8 hardware threads and not in smoke mode (stealing
//     exists to win at high worker counts; on narrow hosts the numbers
//     are reported without judgment).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hh"
#include "bench_common.hh"
#include "engine/executor.hh"
#include "engine/pipeline.hh"
#include "engine/store.hh"
#include "support/text_table.hh"

namespace {

using namespace re;

/// One cold full-suite analysis pass at `jobs` workers under `backend`.
/// Returns the concatenated serialized reports (the determinism witness),
/// the wall time, and the pass's dispatch counters.
struct PassResult {
  std::string fingerprint;
  double millis = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t prefetch_hints = 0;
};

PassResult run_pass(int jobs, engine::SchedulerBackend backend,
                    const std::vector<std::string>& names) {
  const engine::Executor executor(jobs, engine::kDefaultExecutorSeed, backend);
  const auto start = std::chrono::steady_clock::now();

  std::string fingerprint;
  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    // Cold cache per pass: every worker count redoes the identical work.
    analysis::PlanCache cache;
    const std::vector<analysis::BenchmarkEvaluation> evals =
        analysis::evaluate_suite(machine, names, cache, &executor);
    for (const analysis::BenchmarkEvaluation& eval : evals) {
      for (const auto& [policy, run] : eval.runs) {
        fingerprint += machine.name + "/" + eval.name + "/" +
                       analysis::policy_name(policy) + ": " +
                       std::to_string(run.apps[0].cycles) + " cycles\n";
      }
    }
    // The optimize artifacts themselves, via the engine's stable
    // serialization (per-PC MRC construction fans out inside StatStack).
    engine::ArtifactStore store;
    for (const std::string& name : names) {
      const workloads::Program program = workloads::make_benchmark(name);
      fingerprint += engine::serialize_report(
          engine::run_optimize(program, machine, {},
                               engine::EngineContext{&executor, &store}));
    }
  }

  const auto end = std::chrono::steady_clock::now();
  PassResult result;
  result.fingerprint = std::move(fingerprint);
  result.millis =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.steals = executor.steals();
  result.prefetch_hints = executor.prefetch_hints();
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "Engine scaling: forkjoin vs steal backends, 1/2/4/8/16 workers",
      "Full fig4-suite analysis per pass; artifacts must be 0-diff");

  std::vector<std::string> names = workloads::suite_names();
  if (bench::smoke_mode() && names.size() > 2) names.resize(2);

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u%s\n\n", hw_threads,
              hw_threads >= 4 ? "" : " (speedup gates report only)");

  const std::vector<int> worker_counts = {1, 2, 4, 8, 16};
  const engine::SchedulerBackend backends[] = {
      engine::SchedulerBackend::kForkJoin, engine::SchedulerBackend::kSteal};

  bench::JsonReport report("engine_scaling");
  report.set("seed", engine::kDefaultExecutorSeed);
  report.set("hw_threads", static_cast<std::uint64_t>(hw_threads));
  report.set("benchmarks", static_cast<std::uint64_t>(names.size()));

  // passes[backend][i] is the pass at worker_counts[i]; the serial
  // forkjoin pass (backend 0, jobs 1) is the reference fingerprint.
  std::vector<std::vector<PassResult>> passes(2);
  for (std::size_t b = 0; b < 2; ++b) {
    for (const int jobs : worker_counts) {
      passes[b].push_back(run_pass(jobs, backends[b], names));
    }
  }
  const PassResult& reference = passes[0][0];

  bool identical = true;
  TextTable table({"scheduler", "workers", "wall (ms)", "speedup", "steals",
                   "hints", "artifacts"});
  for (std::size_t b = 0; b < 2; ++b) {
    const std::string bname = engine::scheduler_backend_name(backends[b]);
    for (std::size_t i = 0; i < passes[b].size(); ++i) {
      const PassResult& pass = passes[b][i];
      const bool same = pass.fingerprint == reference.fingerprint;
      if (!same) identical = false;
      const double speedup = reference.millis / pass.millis;
      table.add_row({bname, std::to_string(worker_counts[i]),
                     format_double(pass.millis, 1), format_double(speedup, 2),
                     std::to_string(pass.steals),
                     std::to_string(pass.prefetch_hints),
                     same ? "identical" : "DIFFER"});
      const std::string key = "_" + bname + "_jobs" +
                              std::to_string(worker_counts[i]);
      report.set("ms" + key, pass.millis);
      report.set("speedup" + key, speedup);
      report.set("steals" + key, pass.steals);
      report.set("prefetch_hints" + key, pass.prefetch_hints);
    }
  }
  std::printf("%s\n", table.render().c_str());
  report.set("artifacts_identical", std::uint64_t{identical ? 1u : 0u});

  const double speedup4 = reference.millis / passes[0][2].millis;
  const bool gate_speedup = hw_threads >= 4 && !bench::smoke_mode();
  const bool gate_steal = hw_threads >= 8 && !bench::smoke_mode();
  bool failed = false;
  if (!identical) {
    std::printf("FAILED: artifacts differ across backends/worker counts "
                "(determinism contract violated)\n");
    failed = true;
  }
  if (gate_speedup && speedup4 < 2.5) {
    std::printf("FAILED: %.2fx at 4 workers (< 2.5x gate)\n", speedup4);
    failed = true;
  }
  if (gate_steal) {
    // Stealing must not lose to fork-join where it is meant to win; 0.95
    // absorbs run-to-run noise without letting a real regression through.
    for (const std::size_t i : {std::size_t{3}, std::size_t{4}}) {
      const double ratio = passes[0][i].millis / passes[1][i].millis;
      if (ratio < 0.95) {
        std::printf("FAILED: steal is %.2fx of forkjoin at %d workers "
                    "(< 0.95x gate)\n",
                    ratio, worker_counts[i]);
        failed = true;
      }
    }
  }
  if (!failed) {
    std::printf(gate_speedup
                    ? "engine scaling gates hold (0-diff, %.2fx at 4 workers)\n"
                    : "engine determinism gate holds (0-diff; speedup gates "
                      "skipped: %.2fx at 4 workers)\n",
                speedup4);
  }
  report.write();
  return failed ? 1 : 0;
}
