// repf — command-line front end for the resource-efficient prefetching
// framework: dump workloads to the trace-program DSL, run the optimization
// pipeline on a DSL file (printing the annotated listing with inserted
// prefetches), simulate programs under any policy, and measure coverage.
//
//   repf list
//   repf dump <benchmark>
//   repf optimize <file|benchmark> [--machine amd|intel] [--no-nt]
//                 [--stride-centric] [--jobs N] [--verbose]
//   repf run <file|benchmark> [--machine amd|intel] [--hw] [--optimize]
//                 [--jobs N] [--json FILE]
//   repf coverage <file|benchmark> [--machine amd|intel]
//   repf phases <file|benchmark> [--window N] [--threshold X]
//   repf adapt <file|benchmark> [--machine amd|intel] [--window N]
//                 [--threshold X] [--save-cache FILE] [--load-cache FILE]
//                 [--jobs N] [--verbose]
//   repf faultcheck <file|benchmark> [--machine amd|intel] [--rate PCT]
//                 [--seed N] [--jobs N] [--verbose]
//   repf adapt <file|benchmark> ... [--json FILE]
//   repf verify [--machine amd|intel] [--seed N] [--families a,b,...]
//                 [--golden DIR] [--bless] [--jobs N] [--json FILE]
//                 [--verbose]
//   repf chaos [--machine amd|intel] [--rate PCT] [--seed N] [--cores N]
//                 [--serve] [--crash-check] [--jobs N] [--json FILE]
//                 [--verbose]
//   repf serve [--machine amd|intel] [--cores N] [--steps N] [--seed N]
//                 [--jobs N] [--json FILE] [--verbose]
//
// Every command also understands --help. --jobs N fans independent units
// (benchmarks, fuzzed traces, fault rates, per-PC curve builds, advisory
// solves) out over the engine's deterministic executor; output is
// byte-identical at any N.
//
// Exit codes (uniform across commands): 0 success; 1 operational failure
// (bad file, I/O error, verify mismatch); 2 invalid usage; 3
// runtime-degradation gate failure (faultcheck, chaos, or serve invariant
// violated — the output names the seed that reproduces it).
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/functional_sim.hh"
#include "core/fault_injection.hh"
#include "core/phases.hh"
#include "core/pipeline.hh"
#include "engine/executor.hh"
#include "engine/options.hh"
#include "engine/pipeline.hh"
#include "engine/store.hh"
#include "runtime/adaptive_controller.hh"
#include "runtime/chaos.hh"
#include "runtime/plan_cache.hh"
#include "runtime/supervisor.hh"
#include "serve/harness.hh"
#include "serve/service.hh"
#include "sim/system.hh"
#include "support/atomic_file.hh"
#include "support/json.hh"
#include "support/text_table.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/dsl.hh"
#include "workloads/suite.hh"

namespace {

using namespace re;

// Exit-code policy (documented in usage()): distinct codes let CI tell a
// broken invocation from a broken invariant.
constexpr int kExitFailure = 1;   // operational failure (I/O, bad input file)
constexpr int kExitUsage = 2;     // invalid arguments
constexpr int kExitDegraded = 3;  // never-hurts / recovery gate violated

struct Options {
  std::string command;
  std::string target;
  sim::MachineConfig machine = sim::amd_phenom_ii();
  bool hw_prefetch = false;
  bool optimize = false;
  bool enable_nt = true;
  bool stride_centric = false;
  bool verbose = false;
  bool help = false;
  /// Fault rate for `faultcheck` as a fraction; negative = sweep the
  /// default {0, 5, 20, 50} % ladder.
  double fault_rate = -1.0;
  std::uint64_t fault_seed = 0xFA57;
  /// Fuzzer seed for `verify` (also set by --seed; own default).
  std::uint64_t verify_seed = 42;
  /// Schedule seed for `chaos` (also set by --seed; own default).
  std::uint64_t chaos_seed = 0xC4A05;
  /// Cores in the `chaos` synthetic mix ([1, 16], checked in cmd_chaos) or
  /// simulated client cores in `serve` (no upper bound — the service is
  /// virtual-time, 10k+ cores is the intended overload regime).
  int chaos_cores = 0;  // 0 = command default (chaos 2, serve 64)
  /// Also run the plan-cache kill-and-restart sweep in `chaos` (with
  /// --serve: the journal tear/recover sweep instead).
  bool crash_check = false;
  /// `chaos --serve`: target the advisory service tier instead of the
  /// supervised adaptive runtime.
  bool chaos_serve = false;
  /// `chaos --serve --poison-warm-start`: also sweep the poisoned
  /// warm-start recovery gates (bit flips, stale fingerprints, truncation).
  bool poison_warm_start = false;
  /// `serve`: journal acked plans to this directory.
  std::string serve_journal_dir;
  /// `serve --warm-start DIR`: trust-but-verify cache warm-up from a
  /// prior run's shard journals.
  std::string warm_start_dir;
  /// Virtual ticks for `serve` (0 = default 512).
  std::uint64_t serve_steps = 0;
  /// Comma-separated fuzzer family names for `verify` (empty = all).
  std::string families;
  /// Golden-plan snapshot directory for `verify`; empty skips the check.
  std::string golden_dir;
  bool bless = false;
  /// Phase/adaptation window in references (0 = command default).
  std::uint64_t window = 0;
  /// Phase-signature similarity threshold (0 = command default).
  double threshold = 0.0;
  std::string save_cache;
  std::string load_cache;
  /// Engine worker count (--jobs). 1 = serial; any N yields byte-identical
  /// output (the executor's determinism contract).
  int jobs = 1;
  /// Also write the command's report as JSON to this path (atomic write);
  /// `run`, `adapt`, `verify`, `chaos`, and `serve` honor it.
  std::string json_path;
};

/// The subcommand registry: one row per command, driving usage(), the
/// machine-readable `repf commands` listing, and the CLI self-test (every
/// registered command must appear in --help and answer `<cmd> --help`
/// with exit 0). Add new commands here, in help_for(), and in main().
struct CommandInfo {
  const char* name;
  /// Preformatted usage block (argument stub + aligned description lines).
  const char* block;
};

constexpr CommandInfo kCommands[] = {
    {"list", "  list                         list built-in workload models\n"},
    {"dump", "  dump <benchmark>             print a workload in the DSL\n"},
    {"optimize",
     "  optimize <file|benchmark>    run the pipeline, print the annotated\n"
     "                               listing\n"},
    {"run", "  run <file|benchmark>         simulate under a chosen policy\n"},
    {"coverage",
     "  coverage <file|benchmark>    Table-I style coverage row\n"},
    {"phases",
     "  phases <file|benchmark>      detect execution phases\n"},
    {"adapt",
     "  adapt <file|benchmark>       run the online adaptive controller,\n"
     "                               compare vs baseline and static plan\n"},
    {"faultcheck",
     "  faultcheck <file|benchmark>  inject profile faults, verify the\n"
     "                               never-hurts degradation invariant\n"},
    {"verify",
     "  verify                       differential oracle (StatStack vs\n"
     "                               exact LRU) and golden plan and run\n"
     "                               snapshots\n"},
    {"corun",
     "  corun                        co-run scenario matrix: composed\n"
     "                               shared-LLC model vs the exact\n"
     "                               interleaved-LRU oracle\n"},
    {"chaos",
     "  chaos                        replay a seeded fault schedule against\n"
     "                               the supervised runtime, check recovery\n"
     "                               (--serve targets the advisory service)\n"},
    {"serve",
     "  serve                        run the advisory plan service under\n"
     "                               simulated client load, check the\n"
     "                               overload/degradation gates\n"},
    {"commands",
     "  commands                     print registered subcommand names, one\n"
     "                               per line (for scripts and self-tests)\n"},
};

int usage() {
  std::fprintf(stderr,
               "usage: repf <command> [args]   (repf <command> --help for "
               "details)\n");
  for (const CommandInfo& command : kCommands) {
    std::fputs(command.block, stderr);
  }
  std::fprintf(
      stderr,
      "exit codes: 0 ok, 1 operational failure, 2 invalid usage,\n"
      "            3 degradation-gate violation (output names the seed)\n");
  return kExitUsage;
}

/// `repf commands`: the registry, machine-readable. The CLI self-test
/// iterates this to prove every command is documented and help-answering.
int cmd_commands() {
  for (const CommandInfo& command : kCommands) {
    std::printf("%s\n", command.name);
  }
  return 0;
}

/// Detailed per-command help. Returns nullptr for unknown commands.
const char* help_for(const std::string& command) {
  if (command == "list") {
    return "repf list\n"
           "  Print every built-in workload model (paper Table I) with its\n"
           "  dynamic reference count and static load count.\n";
  }
  if (command == "dump") {
    return "repf dump <benchmark>\n"
           "  Print a built-in workload in the trace-program DSL, suitable\n"
           "  for editing and feeding back to any other command.\n";
  }
  if (command == "optimize") {
    return "repf optimize <file|benchmark> [options]\n"
           "  Run the full sampling -> StatStack -> MDDLI -> stride ->\n"
           "  bypass pipeline and print the annotated listing with the\n"
           "  inserted prefetches.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --no-nt               disable non-temporal (bypass) hints\n"
           "    --stride-centric      use the stride-centric baseline pass\n"
           "                          instead of the MDDLI pipeline\n"
           "    --jobs N              engine workers for the pipeline\n"
           "                          (byte-identical output at any N)\n"
           "    --verbose             also print the effective analysis\n"
           "                          knobs and the executor config\n"
           "                          (audit trail)\n";
  }
  if (command == "run") {
    return "repf run <file|benchmark> [options]\n"
           "  Simulate one program alone on core 0 and print run metrics.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --hw                  enable the hardware prefetcher\n"
           "    --optimize            software-prefetch via the pipeline\n"
           "                          before running\n"
           "    --jobs N              engine workers for the optimize step\n"
           "                          (byte-identical output at any N)\n"
           "    --json FILE           also write the metrics as JSON\n"
           "                          (atomic temp-file + rename)\n";
  }
  if (command == "coverage") {
    return "repf coverage <file|benchmark> [--machine amd|intel]\n"
           "  Measure miss coverage and overhead (paper Table I columns)\n"
           "  for the MDDLI-filtered and stride-centric passes.\n";
  }
  if (command == "phases") {
    return "repf phases <file|benchmark> [options]\n"
           "  Profile the program, fingerprint fixed-size windows by their\n"
           "  per-PC frequency signatures and cluster them into phases.\n"
           "    --window N      window size in references (default 65536)\n"
           "    --threshold X   signature Manhattan-distance threshold in\n"
           "                    [0, 2] below which windows share a phase\n"
           "                    (default 0.5)\n";
  }
  if (command == "adapt") {
    return "repf adapt <file|benchmark> [options]\n"
           "  Run the online adaptive prefetch runtime (windowed sampling,\n"
           "  phase detection, plan cache, bandwidth governor) against the\n"
           "  no-prefetch baseline and the offline static plan.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --window N            adaptation window in references\n"
           "                          (default 1024)\n"
           "    --threshold X         phase-match threshold in [0, 2]\n"
           "                          (default 0.5)\n"
           "    --save-cache FILE     write the learned plan cache as JSON\n"
           "    --load-cache FILE     warm-start from a saved plan cache\n"
           "    --jobs N              engine workers for the offline plan\n"
           "                          and per-window re-optimizations\n"
           "    --json FILE           also write the comparison as JSON\n"
           "                          (atomic temp-file + rename)\n"
           "    --verbose             also print the cached plan sets\n";
  }
  if (command == "faultcheck") {
    return "repf faultcheck <file|benchmark> [options]\n"
           "  Inject sampling faults into the profile and verify the\n"
           "  never-hurts degradation invariant end-to-end.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --rate PCT            single fault rate in percent\n"
           "                          (default: sweep 0/5/20/50)\n"
           "    --seed N              fault-injection seed\n"
           "    --jobs N              evaluate fault rates on N engine\n"
           "                          workers (byte-identical output)\n"
           "    --verbose             print the degradation logs\n";
  }
  if (command == "chaos") {
    return "repf chaos [options]\n"
           "  Generate a seeded schedule of fault episodes (window drops,\n"
           "  clock skew, governor blackout, profile corruption), replay it\n"
           "  against the supervised adaptive runtime on a synthetic\n"
           "  multi-core mix, and check the recovery gates: the chaotic run\n"
           "  never loses more than 1 % to the no-prefetch baseline, every\n"
           "  recovery completes within 64 windows, no circuit opens, and a\n"
           "  zero-fault schedule trips nothing. Output is deterministic:\n"
           "  same seed, same bytes. Exits 3 if any gate fails.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --rate PCT            single fault rate in percent\n"
           "                          (default: sweep 0/10/25/50)\n"
           "    --seed N              schedule seed (default 0xC4A05)\n"
           "    --cores N             cores in the synthetic mix\n"
           "                          (default 2, max 16)\n"
           "    --serve               target the advisory service tier: a\n"
           "                          fault-rate sweep of injected cache\n"
           "                          faults with double-run determinism,\n"
           "                          breaker, and degradation gates\n"
           "    --crash-check         also sweep crash consistency: plan\n"
           "                          cache kill/corruption, or with --serve\n"
           "                          the journal tear/recover/ack audit\n"
           "    --poison-warm-start   with --serve: also sweep poisoned\n"
           "                          warm-start recovery — bit-flipped,\n"
           "                          stale-fingerprint, and truncated shard\n"
           "                          journals must cost cache warmth only\n"
           "                          (quarantine/reject), never a stale or\n"
           "                          alien plan, a lost ack, or the daemon\n"
           "    --jobs N              replay fault rates on N engine\n"
           "                          workers (byte-identical output)\n"
           "    --json FILE           also write the gate results as JSON\n"
           "                          (atomic temp-file + rename)\n"
           "    --verbose             print the fault schedule and per-core\n"
           "                          domain stats\n";
  }
  if (command == "serve") {
    return "repf serve [options]\n"
           "  Run the long-lived advisory plan service against seeded mixed\n"
           "  hot/cold traffic from N simulated client cores in virtual\n"
           "  time: cache hits answer immediately, misses solve on the\n"
           "  analysis engine under a deadline budget with cooperative\n"
           "  cancellation, and overload degrades (last-known-good or\n"
           "  no-prefetch) instead of blocking. Checks the robustness\n"
           "  gates: bounded queue, no deadline-missed answer served as\n"
           "  fresh, every degraded answer safe. Output is deterministic:\n"
           "  same seed, same bytes, at any --jobs. Exits 3 on any gate\n"
           "  failure.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --cores N             simulated client cores (default 64;\n"
           "                          no upper bound — virtual time)\n"
           "    --steps N             virtual ticks to run (default 512)\n"
           "    --seed N              traffic/service seed (default 0xC4A05)\n"
           "    --journal DIR         journal acked plans to per-shard\n"
           "                          append-mode files under DIR (created\n"
           "                          if missing), headers stamped with the\n"
           "                          machine-model/knob fingerprint\n"
           "    --warm-start DIR      trust-but-verify warm start from a\n"
           "                          prior run's shard journals in DIR:\n"
           "                          fingerprint + CRC + plan-sanity\n"
           "                          revalidation, suspect state is\n"
           "                          quarantined (that phase re-solves\n"
           "                          fresh), never served\n"
           "    --jobs N              engine workers for the solve batches\n"
           "                          (byte-identical output at any N)\n"
           "    --json FILE           also write the metrics as JSON\n"
           "                          (atomic temp-file + rename)\n"
           "    --verbose             also print the per-shard breaker\n"
           "                          states and cache sizes\n";
  }
  if (command == "verify") {
    return "repf verify [options]\n"
           "  Run the differential verification harness: fuzzed traces with\n"
           "  known analytic truth are replayed once into both the sampled\n"
           "  StatStack estimator and an exact-LRU reference model, and the\n"
           "  miss-ratio curves plus MDDLI/bypass decisions are compared.\n"
           "  Output is deterministic: same seed, same bytes.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --seed N              fuzzer seed (default 42)\n"
           "    --families a,b,...    restrict to these fuzzer families\n"
           "                          (strided subline chase blocked\n"
           "                          phasemix hotcold; default all)\n"
           "    --golden DIR          also check the suite's prefetch plans\n"
           "                          and simulated runs against\n"
           "                          DIR/plans_<machine>.golden and\n"
           "                          DIR/runs_<machine>.golden\n"
           "    --bless               rewrite the golden snapshots instead\n"
           "                          of checking them\n"
           "    --jobs N              fan traces and golden benchmarks out\n"
           "                          over N engine workers\n"
           "                          (byte-identical output at any N)\n"
           "    --json FILE           also write the results as JSON\n"
           "                          (atomic temp-file + rename)\n"
           "    --verbose             print the full per-trace reports\n";
  }
  if (command == "commands") {
    return "repf commands\n"
           "  Print every registered subcommand name, one per line. The CLI\n"
           "  self-test iterates this list to prove each command appears in\n"
           "  --help and answers `repf <cmd> --help` with exit 0.\n";
  }
  if (command == "corun") {
    return "repf corun [options]\n"
           "  Run the multi-programmed co-run scenario matrix: per-core\n"
           "  StatStack profiles are composed into shared-LLC miss-ratio\n"
           "  curves (interleaving-ratio reuse inflation) and checked\n"
           "  against one exact LRU stack over the interleaved trace, with\n"
           "  per-family error bounds, an exact per-core miss-attribution\n"
           "  identity, and the streaming-vs-chase interference prediction\n"
           "  (hardware prefetching must be predicted to degrade the chase\n"
           "  victim). Output is deterministic: same seed, same bytes.\n"
           "    --machine amd|intel   target machine model (default amd)\n"
           "    --seed N              fuzzer seed (default 42)\n"
           "    --cores N             run only this core count\n"
           "                          (default matrix: 2, 4, 8; max 16)\n"
           "    --golden DIR          also check the co-run victim plans\n"
           "                          against DIR/corun_plans_<machine>\n"
           "                          .golden\n"
           "    --bless               rewrite the golden snapshot instead\n"
           "                          of checking it\n"
           "    --jobs N              fan scenario cells and golden\n"
           "                          benchmarks out over N engine workers\n"
           "                          (byte-identical output at any N)\n"
           "    --json FILE           also write the results as JSON\n"
           "                          (atomic temp-file + rename)\n"
           "    --verbose             print the full per-scenario reports\n";
  }
  return nullptr;
}

/// Round-trippable rendering for JSON number output.
std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return std::string(buf);
}

/// Atomic-write a command's JSON report; prints the error and returns
/// kExitFailure on I/O trouble, 0 otherwise.
int write_json_report(const std::string& path, const std::string& payload) {
  const Status saved = support::write_file_atomic(path, payload);
  if (!saved.ok()) {
    std::fprintf(stderr, "repf: %s: %s\n", path.c_str(),
                 saved.to_string().c_str());
    return kExitFailure;
  }
  return 0;
}

workloads::Program load_target(const std::string& target) {
  const auto& names = workloads::suite_names();
  if (std::find(names.begin(), names.end(), target) != names.end()) {
    return workloads::make_benchmark(target);
  }
  std::ifstream file(target);
  if (!file) {
    throw std::runtime_error("no such benchmark or file: " + target);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return workloads::parse_program(text.str());
}

int cmd_list() {
  std::printf("built-in workload models (paper Table I):\n");
  TextTable table({"benchmark", "refs/run", "static loads"});
  for (const std::string& name : workloads::suite_names()) {
    const auto p = workloads::make_benchmark(name);
    table.add_row({name, std::to_string(p.total_references()),
                   std::to_string(p.static_instruction_count())});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_dump(const Options& opts) {
  std::fputs(workloads::print_program(load_target(opts.target)).c_str(),
             stdout);
  return 0;
}

int cmd_optimize(const Options& opts) {
  const workloads::Program program = load_target(opts.target);
  engine::AnalysisKnobs knobs;
  knobs.enable_non_temporal = opts.enable_nt;
  const core::OptimizerOptions options = engine::make_optimizer_options(knobs);
  const engine::Executor executor(opts.jobs);
  engine::ArtifactStore store;
  const engine::EngineContext ctx{&executor, &store};
  const core::OptimizationReport report =
      opts.stride_centric
          ? engine::run_stride_centric(program, opts.machine, options, ctx)
          : engine::run_optimize(program, opts.machine, options, ctx);

  if (opts.verbose) {
    std::printf("# effective analysis knobs:\n");
    std::istringstream lines(engine::describe_knobs(knobs));
    std::string line;
    while (std::getline(lines, line)) {
      std::printf("#   %s\n", line.c_str());
    }
    // Execution config: the analysis result never depends on it, the
    // wall-clock (and the audit trail) does.
    std::printf("# executor: jobs=%d\n", executor.jobs());
  }
  std::printf("# %s pass on %s | Δ=%.2f cycles/memop | %zu plans\n",
              opts.stride_centric ? "stride-centric" : "MDDLI",
              opts.machine.name.c_str(), report.cycles_per_memop,
              report.plans.size());
  for (const auto& plan : report.plans) {
    std::printf("#   pc%-3u %s %+lld\n", plan.pc, core::hint_mnemonic(plan.hint),
                static_cast<long long>(plan.distance_bytes));
  }
  std::fputs(workloads::print_program(report.optimized).c_str(), stdout);
  return 0;
}

int cmd_run(const Options& opts) {
  workloads::Program program = load_target(opts.target);
  if (opts.optimize) {
    engine::AnalysisKnobs knobs;
    knobs.enable_non_temporal = opts.enable_nt;
    const engine::Executor executor(opts.jobs);
    engine::ArtifactStore store;
    program = engine::run_optimize(program, opts.machine,
                                   engine::make_optimizer_options(knobs),
                                   engine::EngineContext{&executor, &store})
                  .optimized;
  }
  const sim::RunResult run =
      sim::run_single(opts.machine, program, opts.hw_prefetch);
  const auto& mem = run.apps[0].mem;
  const double cpi = static_cast<double>(run.apps[0].cycles) /
                     static_cast<double>(mem.loads);

  TextTable table({"metric", "value"});
  table.add_row({"machine", opts.machine.name});
  table.add_row({"cycles", std::to_string(run.apps[0].cycles)});
  table.add_row({"references", std::to_string(mem.loads)});
  table.add_row({"CPI (per memop)", format_double(cpi, 2)});
  table.add_row({"L1 miss ratio", format_percent(mem.l1_miss_ratio())});
  table.add_row({"off-chip lines", std::to_string(run.dram.total_lines())});
  table.add_row({"bandwidth", format_gbps(run.bandwidth_gbps())});
  table.add_row({"sw prefetches", std::to_string(mem.sw_prefetches_issued)});
  table.add_row({"late prefetches", std::to_string(mem.late_prefetch_hits)});
  table.add_row(
      {"hw prefetch lines", std::to_string(mem.hw_prefetch_dram_lines)});
  std::fputs(table.render().c_str(), stdout);

  if (!opts.json_path.empty()) {
    const auto& num = json_num;
    std::ostringstream json;
    json << "{\n"
         << "  \"command\": \"run\",\n"
         << "  \"benchmark\": \"" << json::escape(program.name) << "\",\n"
         << "  \"machine\": \"" << json::escape(opts.machine.name) << "\",\n"
         << "  \"hw_prefetch\": " << (opts.hw_prefetch ? "true" : "false")
         << ",\n"
         << "  \"optimized\": " << (opts.optimize ? "true" : "false") << ",\n"
         << "  \"cycles\": " << run.apps[0].cycles << ",\n"
         << "  \"references\": " << mem.loads << ",\n"
         << "  \"cpi_per_memop\": " << num(cpi) << ",\n"
         << "  \"l1_miss_ratio\": " << num(mem.l1_miss_ratio()) << ",\n"
         << "  \"offchip_lines\": " << run.dram.total_lines() << ",\n"
         << "  \"bandwidth_gbps\": " << num(run.bandwidth_gbps()) << ",\n"
         << "  \"sw_prefetches\": " << mem.sw_prefetches_issued << ",\n"
         << "  \"late_prefetches\": " << mem.late_prefetch_hits << ",\n"
         << "  \"hw_prefetch_lines\": " << mem.hw_prefetch_dram_lines << "\n"
         << "}\n";
    const int rc = write_json_report(opts.json_path, json.str());
    if (rc != 0) return rc;
  }
  return 0;
}

int cmd_phases(const Options& opts) {
  const workloads::Program program = load_target(opts.target);
  core::PhaseOptions phase_options;
  if (opts.window > 0) phase_options.window_refs = opts.window;
  if (opts.threshold > 0.0) phase_options.similarity_threshold = opts.threshold;
  const core::PhasedProfile phased =
      core::profile_with_phases(program, {}, phase_options);
  std::printf("%d phase(s) over %llu references\n", phased.num_phases,
              static_cast<unsigned long long>(
                  phased.full.total_references));
  TextTable table({"segment", "phase", "begin", "end", "refs"});
  for (std::size_t i = 0; i < phased.segments.size(); ++i) {
    const auto& seg = phased.segments[i];
    table.add_row({std::to_string(i), std::to_string(seg.phase_id),
                   std::to_string(seg.begin_ref),
                   std::to_string(seg.end_ref),
                   std::to_string(seg.end_ref - seg.begin_ref)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_coverage(const Options& opts) {
  const workloads::Program program = load_target(opts.target);
  const auto mddli = core::optimize_program(program, opts.machine);
  const auto centric = core::stride_centric_optimize(program, opts.machine);
  const auto cov_m = analysis::measure_coverage(program, mddli.optimized,
                                                opts.machine.l1);
  const auto cov_c = analysis::measure_coverage(program, centric.optimized,
                                                opts.machine.l1);
  TextTable table({"method", "miss coverage", "OH", "prefetches"});
  table.add_row({"MDDLI filtered", format_percent(cov_m.miss_coverage()),
                 format_double(cov_m.overhead(), 1),
                 std::to_string(cov_m.prefetches_executed)});
  table.add_row({"stride-centric", format_percent(cov_c.miss_coverage()),
                 format_double(cov_c.overhead(), 1),
                 std::to_string(cov_c.prefetches_executed)});
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_adapt(const Options& opts) {
  const workloads::Program program = load_target(opts.target);

  // One executor for the whole command: the offline static plan and every
  // per-window re-optimization inside the controller fan out over it.
  // Declared before the controller so the pointer outlives every use.
  const engine::Executor executor(opts.jobs);

  runtime::AdaptiveOptions aopts;
  aopts.executor = &executor;
  aopts.window_refs = 1024;
  aopts.sampler = core::SamplerConfig{50, 42};
  aopts.phases.hysteresis_windows = 1;
  if (opts.window > 0) aopts.window_refs = opts.window;
  if (opts.threshold > 0.0) {
    aopts.phases.similarity_threshold = opts.threshold;
    aopts.cache.match_threshold = opts.threshold;
  }

  runtime::AdaptiveController controller(program, opts.machine, aopts);
  if (!opts.load_cache.empty()) {
    // Crash-consistent load: understands both the CRC journal written by
    // --save-cache and legacy JSON; corrupt entries are quarantined, not
    // fatal (warm-starting from a partial cache beats cold-starting).
    auto loaded = runtime::PlanCache::load_file(opts.load_cache, aopts.cache);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "repf: %s: %s\n", opts.load_cache.c_str(),
                   loaded.status().to_string().c_str());
      return kExitFailure;
    }
    runtime::PlanCache::LoadReport report = std::move(loaded.value());
    controller.plan_cache() = std::move(report.cache);
    std::printf("# warm start: %zu cached plan set(s) from %s\n",
                controller.plan_cache().size(), opts.load_cache.c_str());
    if (report.degraded()) {
      std::printf("# degraded load: %zu loaded, %zu quarantined, %zu missing\n",
                  report.loaded, report.quarantined, report.missing);
      for (const std::string& line : report.quarantine_log) {
        std::printf("#   quarantined: %s\n", line.c_str());
      }
    }
  }

  const sim::RunResult base = sim::run_single(opts.machine, program, false);
  engine::ArtifactStore store;
  const core::OptimizationReport merged =
      engine::run_optimize(program, opts.machine, core::OptimizerOptions{},
                           engine::EngineContext{&executor, &store});
  const sim::RunResult stat =
      sim::run_single(opts.machine, merged.optimized, false);
  const sim::RunResult adaptive =
      sim::run_single_adaptive(opts.machine, program, false, controller);
  const runtime::AdaptiveStats stats = controller.stats();

  const double base_cycles = static_cast<double>(base.apps[0].cycles);
  TextTable runs({"configuration", "cycles", "speedup vs baseline"});
  const auto row = [&](const char* name, const sim::RunResult& r) {
    runs.add_row({name, std::to_string(r.apps[0].cycles),
                  format_double(base_cycles /
                                    static_cast<double>(r.apps[0].cycles),
                                3)});
  };
  row("baseline (no prefetch)", base);
  row("static plan (offline)", stat);
  row("online adaptive", adaptive);
  std::fputs(runs.render().c_str(), stdout);

  TextTable table({"adaptive runtime metric", "value"});
  table.add_row({"windows", std::to_string(stats.windows)});
  table.add_row({"phases detected", std::to_string(stats.phases)});
  table.add_row({"phase switches", std::to_string(stats.phase_switches)});
  table.add_row({"re-optimizations", std::to_string(stats.reoptimizations)});
  table.add_row({"  of which refinements", std::to_string(stats.refinements)});
  table.add_row({"plan hot-swaps", std::to_string(stats.hot_swaps)});
  table.add_row({"plan-cache hit rate",
                 format_percent(stats.cache.hit_rate())});
  table.add_row({"measured Δ (cycles/memop)",
                 format_double(stats.measured_cycles_per_memop, 2)});
  table.add_row({"governor demote windows",
                 std::to_string(stats.governor.demote_windows)});
  table.add_row({"governor suppress windows",
                 std::to_string(stats.governor.suppress_windows)});
  table.add_row({"governor peak utilization",
                 format_percent(stats.governor.peak_utilization)});
  std::fputs(table.render().c_str(), stdout);

  if (opts.verbose) {
    std::printf("plan cache (MRU first):\n");
    std::size_t i = 0;
    for (const auto& entry : controller.plan_cache().entries()) {
      std::printf("  entry %zu: %zu plan(s)\n", i++, entry.plans.size());
      for (const auto& plan : entry.plans) {
        std::printf("    pc%-3u %s %+lld\n", plan.pc,
                    core::hint_mnemonic(plan.hint),
                    static_cast<long long>(plan.distance_bytes));
      }
    }
  }

  if (!opts.save_cache.empty()) {
    // Atomic, checksummed journal (temp file + rename): a kill mid-save
    // leaves any previous snapshot intact.
    const Status saved = controller.plan_cache().save(opts.save_cache);
    if (!saved.ok()) {
      std::fprintf(stderr, "repf: %s: %s\n", opts.save_cache.c_str(),
                   saved.to_string().c_str());
      return kExitFailure;
    }
    std::printf("# saved %zu cached plan set(s) to %s\n",
                controller.plan_cache().size(), opts.save_cache.c_str());
  }

  if (!opts.json_path.empty()) {
    const auto& num = json_num;
    const auto speedup = [&](const sim::RunResult& r) {
      return base_cycles / static_cast<double>(r.apps[0].cycles);
    };
    std::ostringstream json;
    json << "{\n"
         << "  \"command\": \"adapt\",\n"
         << "  \"benchmark\": \"" << json::escape(program.name) << "\",\n"
         << "  \"machine\": \"" << json::escape(opts.machine.name) << "\",\n"
         << "  \"window_refs\": " << aopts.window_refs << ",\n"
         << "  \"baseline_cycles\": " << base.apps[0].cycles << ",\n"
         << "  \"static_cycles\": " << stat.apps[0].cycles << ",\n"
         << "  \"adaptive_cycles\": " << adaptive.apps[0].cycles << ",\n"
         << "  \"static_speedup\": " << num(speedup(stat)) << ",\n"
         << "  \"adaptive_speedup\": " << num(speedup(adaptive)) << ",\n"
         << "  \"windows\": " << stats.windows << ",\n"
         << "  \"phases\": " << stats.phases << ",\n"
         << "  \"phase_switches\": " << stats.phase_switches << ",\n"
         << "  \"reoptimizations\": " << stats.reoptimizations << ",\n"
         << "  \"refinements\": " << stats.refinements << ",\n"
         << "  \"hot_swaps\": " << stats.hot_swaps << ",\n"
         << "  \"cache_hit_rate\": " << num(stats.cache.hit_rate()) << ",\n"
         << "  \"measured_cycles_per_memop\": "
         << num(stats.measured_cycles_per_memop) << ",\n"
         << "  \"governor_demote_windows\": " << stats.governor.demote_windows
         << ",\n"
         << "  \"governor_suppress_windows\": "
         << stats.governor.suppress_windows << ",\n"
         << "  \"governor_peak_utilization\": "
         << num(stats.governor.peak_utilization) << "\n"
         << "}\n";
    const int rc = write_json_report(opts.json_path, json.str());
    if (rc != 0) return rc;
  }
  return 0;
}

int cmd_faultcheck(const Options& opts) {
  const workloads::Program program = load_target(opts.target);
  const sim::RunResult base =
      sim::run_single(opts.machine, program, /*hw_prefetch=*/false);
  const double base_cycles = static_cast<double>(base.apps[0].cycles);
  constexpr double kEpsilon = 0.01;

  const core::Profile profile =
      core::profile_program(program, core::SamplerConfig{});
  const core::OptimizationReport clean =
      core::optimize_program(program, opts.machine);

  std::vector<double> rates = {0.0, 0.05, 0.2, 0.5};
  if (opts.fault_rate >= 0.0) rates = {opts.fault_rate};

  std::printf("# faultcheck %s on %s | baseline %llu cycles | ε = %.0f %%\n",
              program.name.c_str(), opts.machine.name.c_str(),
              static_cast<unsigned long long>(base.apps[0].cycles),
              kEpsilon * 100.0);
  TextTable table({"fault rate", "plans", "suppressed", "vs baseline",
                   "verdict"});
  // Each fault rate is an independent optimize+simulate unit; fan them out
  // and assemble rows in rate order (the ordered map keeps output identical
  // to the serial sweep at any --jobs).
  struct RateResult {
    std::size_t plans = 0;
    std::size_t suppressed = 0;
    double delta = 0.0;
    bool ok = true;
    std::string log;
  };
  const engine::Executor executor(opts.jobs);
  const std::vector<RateResult> results =
      executor.map(rates.size(), [&](std::size_t i) {
        const double rate = rates[i];
        const core::FaultInjector injector(
            core::FaultConfig::uniform(rate, opts.fault_seed));
        const core::OptimizationReport report = core::optimize_with_profile(
            program, injector.inject(profile), opts.machine);
        const sim::RunResult opt =
            sim::run_single(opts.machine, report.optimized, false);

        RateResult r;
        r.plans = report.plans.size();
        r.suppressed = report.degradation.size();
        r.delta =
            static_cast<double>(opt.apps[0].cycles) / base_cycles - 1.0;
        r.ok = r.delta <= kEpsilon;
        for (const core::DelinquentLoad& load : report.delinquent_loads) {
          const bool planned = std::any_of(
              report.plans.begin(), report.plans.end(),
              [&](const core::PrefetchPlan& p) { return p.pc == load.pc; });
          if (!planned && !report.degradation.contains(load.pc)) r.ok = false;
        }
        if (rate == 0.0 && report.plans.size() != clean.plans.size()) {
          r.ok = false;
        }
        if (opts.verbose && !report.degradation.empty()) {
          r.log = "-- degradation log @ " + format_percent(rate) + "\n" +
                  report.degradation.to_string();
        }
        return r;
      });

  int violations = 0;
  std::string logs;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const RateResult& r = results[i];
    if (!r.ok) ++violations;
    table.add_row({format_percent(rates[i]), std::to_string(r.plans),
                   std::to_string(r.suppressed), format_percent(r.delta),
                   r.ok ? "OK" : "VIOLATION"});
    logs += r.log;
  }
  std::fputs(table.render().c_str(), stdout);
  if (opts.verbose) std::fputs(logs.c_str(), stdout);
  if (violations > 0) {
    std::printf("FAILED: %d violation(s) (reproduce with --seed %llu)\n",
                violations,
                static_cast<unsigned long long>(opts.fault_seed));
    return kExitDegraded;
  }
  std::printf("degradation invariant holds\n");
  return 0;
}

/// Per-core stream + hot-buffer mix in disjoint address spaces — the same
/// shape the chaos tests and bench_chaos_recovery use, so a CI failure
/// reproduces here with one flag.
workloads::Program chaos_mix_program(std::uint64_t core) {
  workloads::Program p;
  p.name = "chaos-app-" + std::to_string(core);
  p.seed = 42 + core;
  workloads::StaticInst a, b;
  a.pc = 1;
  a.pattern = workloads::StreamPattern{core << 36, 64, 4 << 20};
  b.pc = 2;
  b.pattern = workloads::HotBufferPattern{(core + 8) << 36, 64, 16 << 10};
  p.loops.push_back(workloads::Loop{{a, b}, 32768});
  p.outer_reps = 2;
  return p;
}

/// Render the serve-gate verdict lines shared by `serve` and
/// `chaos --serve`; returns the number of violated gates.
int print_serve_gates(const serve::ServeRunResult& r,
                      std::uint64_t deadline_ticks) {
  struct Gate {
    const char* name;
    bool ok;
  };
  const bool p99_ok =
      r.p99_admitted <= static_cast<double>(deadline_ticks);
  const Gate gates[] = {
      {"bounded queue (depth <= capacity)", r.queue_bounded},
      {"no stale-as-fresh (missed deadline => degraded)",
       r.no_stale_fresh && r.stats.stale_fresh_violations == 0},
      {"degraded answers safe (LKG or no-prefetch only)", r.degraded_safe},
      {"p99 admitted latency within deadline", p99_ok},
  };
  int violations = 0;
  for (const Gate& gate : gates) {
    if (!gate.ok) ++violations;
    std::printf("gate: %-48s %s\n", gate.name,
                gate.ok ? "OK" : "VIOLATION");
  }
  return violations;
}

std::string serve_stats_json(const serve::ServeRunResult& r) {
  const auto& num = json_num;
  const auto& s = r.stats;
  std::ostringstream json;
  json << "    \"submitted\": " << s.submitted << ",\n"
       << "    \"responses\": " << r.responses << ",\n"
       << "    \"fresh\": " << s.fresh << ",\n"
       << "    \"cache_hits\": " << s.cache_hits << ",\n"
       << "    \"last_known_good\": " << s.last_known_good << ",\n"
       << "    \"no_prefetch\": " << s.no_prefetch << ",\n"
       << "    \"shed_queue_full\": " << s.shed_queue_full << ",\n"
       << "    \"shed_infeasible\": " << s.shed_infeasible << ",\n"
       << "    \"deadline_expired\": " << s.deadline_expired << ",\n"
       << "    \"shard_down\": " << s.shard_down << ",\n"
       << "    \"cache_faults\": " << s.cache_faults << ",\n"
       << "    \"cancelled_solves\": " << s.cancelled_solves << ",\n"
       << "    \"retries\": " << s.retries << ",\n"
       << "    \"journal_appends\": " << s.journal_appends << ",\n"
       << "    \"breaker_trips\": " << s.breaker_trips << ",\n"
       << "    \"deadline_missed\": " << s.deadline_missed << ",\n"
       << "    \"stale_fresh_violations\": " << s.stale_fresh_violations
       << ",\n"
       << "    \"max_queue_depth\": " << s.max_queue_depth << ",\n"
       << "    \"solves_started\": " << s.solves_started << ",\n"
       << "    \"shed_quota\": " << s.shed_quota << ",\n"
       << "    \"quota_breaker_trips\": " << s.quota_breaker_trips << ",\n"
       << "    \"shed_slow_consumer\": " << s.shed_slow_consumer << ",\n"
       << "    \"max_tenant_queue_depth\": " << s.max_tenant_queue_depth
       << ",\n"
       << "    \"warm_files_loaded\": " << s.warm_files_loaded << ",\n"
       << "    \"warm_files_rejected\": " << s.warm_files_rejected << ",\n"
       << "    \"warm_entries_loaded\": " << s.warm_entries_loaded << ",\n"
       << "    \"warm_entries_quarantined\": " << s.warm_entries_quarantined
       << ",\n"
       << "    \"p50_admitted_ticks\": " << num(r.p50_admitted) << ",\n"
       << "    \"p99_admitted_ticks\": " << num(r.p99_admitted) << ",\n"
       << "    \"shed_rate\": " << num(r.shed_rate) << ",\n"
       << "    \"deadline_miss_rate\": " << num(r.deadline_miss_rate) << ",\n"
       << "    \"hit_rate\": " << num(r.hit_rate) << ",\n"
       << "    \"degraded_rate\": " << num(r.degraded_rate) << ",\n"
       << "    \"digest\": " << r.digest;
  return json.str();
}

int cmd_serve(const Options& opts) {
  serve::TrafficConfig traffic;
  traffic.cores = opts.chaos_cores > 0 ? opts.chaos_cores : 64;
  traffic.ticks = opts.serve_steps > 0 ? opts.serve_steps : 512;
  traffic.seed = opts.chaos_seed;

  serve::ServiceOptions sopts;
  sopts.seed = opts.chaos_seed ^ 0xAD115EEDull;
  // Journals and warm-start files carry the machine-model/knob fingerprint
  // so a restart under different assumptions refuses the stale state.
  core::OptimizerOptions knobs;
  knobs.enable_non_temporal = opts.enable_nt;
  sopts.config_fingerprint = serve::config_fingerprint(opts.machine, knobs);
  if (!opts.serve_journal_dir.empty()) {
    ::mkdir(opts.serve_journal_dir.c_str(), 0755);  // EEXIST is fine
    sopts.journal_dir = opts.serve_journal_dir;
  }
  sopts.warm_start_dir = opts.warm_start_dir;

  const engine::Executor executor(opts.jobs);
  const std::vector<serve::Family> families =
      serve::make_families(traffic.hot_families, traffic.cold_families);
  const serve::AdvisoryService::Solver solver =
      serve::make_engine_solver(families, opts.machine, &executor);

  std::printf("# repf serve | machine=%s | seed=%llu | %d core(s) | "
              "%llu tick(s) | deadline=%llu | fingerprint=%s\n",
              opts.machine.name.c_str(),
              static_cast<unsigned long long>(opts.chaos_seed), traffic.cores,
              static_cast<unsigned long long>(traffic.ticks),
              static_cast<unsigned long long>(sopts.deadline_ticks),
              sopts.config_fingerprint.c_str());
  const serve::ServeRunResult r =
      serve::run_serve_sim(traffic, sopts, solver, &executor);
  const auto& s = r.stats;

  if (!opts.warm_start_dir.empty()) {
    std::printf("# warm start from %s: %llu file(s) accepted, %llu "
                "rejected; %llu entrie(s) verified, %llu quarantined\n",
                opts.warm_start_dir.c_str(),
                static_cast<unsigned long long>(s.warm_files_loaded),
                static_cast<unsigned long long>(s.warm_files_rejected),
                static_cast<unsigned long long>(s.warm_entries_loaded),
                static_cast<unsigned long long>(s.warm_entries_quarantined));
  }

  TextTable table({"service metric", "value"});
  table.add_row({"requests", std::to_string(s.submitted)});
  table.add_row({"  fresh solves", std::to_string(s.fresh)});
  table.add_row({"  cache hits", std::to_string(s.cache_hits)});
  table.add_row({"  last-known-good", std::to_string(s.last_known_good)});
  table.add_row({"  no-prefetch", std::to_string(s.no_prefetch)});
  table.add_row({"shed (queue full)", std::to_string(s.shed_queue_full)});
  table.add_row({"shed (infeasible)", std::to_string(s.shed_infeasible)});
  table.add_row({"deadline expirations", std::to_string(s.deadline_expired)});
  table.add_row({"cancelled solves", std::to_string(s.cancelled_solves)});
  table.add_row({"retries", std::to_string(s.retries)});
  table.add_row({"breaker trips", std::to_string(s.breaker_trips)});
  table.add_row({"p50 admitted (ticks)", format_double(r.p50_admitted, 1)});
  table.add_row({"p99 admitted (ticks)", format_double(r.p99_admitted, 1)});
  table.add_row({"hit rate", format_percent(r.hit_rate)});
  table.add_row({"shed rate", format_percent(r.shed_rate)});
  table.add_row({"deadline-miss rate", format_percent(r.deadline_miss_rate)});
  table.add_row({"degraded rate", format_percent(r.degraded_rate)});
  table.add_row({"max queue depth",
                 std::to_string(s.max_queue_depth) + " / " +
                     std::to_string(sopts.queue_capacity)});
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  table.add_row({"response digest", digest});
  std::fputs(table.render().c_str(), stdout);

  if (opts.verbose) {
    std::printf("shards: %d | open at end: %d | journal acks: %zu | "
                "final tick: %llu\n",
                sopts.shards, r.shards_open, r.acked.size(),
                static_cast<unsigned long long>(r.final_tick));
  }

  const int violations = print_serve_gates(r, sopts.deadline_ticks);

  if (!opts.json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"command\": \"serve\",\n"
         << "  \"machine\": \"" << json::escape(opts.machine.name) << "\",\n"
         << "  \"seed\": " << opts.chaos_seed << ",\n"
         << "  \"cores\": " << traffic.cores << ",\n"
         << "  \"ticks\": " << traffic.ticks << ",\n"
         << "  \"metrics\": {\n"
         << serve_stats_json(r) << "\n  },\n"
         << "  \"ok\": " << (violations == 0 ? "true" : "false") << "\n"
         << "}\n";
    const int rc = write_json_report(opts.json_path, json.str());
    if (rc != 0) return rc;
  }

  if (violations > 0) {
    std::printf("serve FAILED: %d gate violation(s) (reproduce with "
                "--seed %llu)\n",
                violations,
                static_cast<unsigned long long>(opts.chaos_seed));
    return kExitDegraded;
  }
  std::printf("serve robustness gates hold\n");
  return 0;
}

/// `repf chaos --serve`: fault-rate sweep against the advisory service —
/// injected transient cache faults exercise the retry ladder and the
/// per-shard breakers, every rate is replayed twice to witness
/// byte-determinism, and --crash-check tears the journals.
int cmd_chaos_serve(const Options& opts) {
  std::vector<double> rates = {0.0, 0.1, 0.25, 0.5};
  if (opts.fault_rate >= 0.0) rates = {opts.fault_rate};

  serve::TrafficConfig traffic;
  traffic.cores = 32;
  traffic.ticks = 256;
  traffic.request_rate = 0.1;
  traffic.hot_families = 4;
  traffic.cold_families = 32;
  traffic.seed = opts.chaos_seed;

  std::printf("# repf chaos --serve | machine=%s | seed=%llu | %d core(s)\n",
              opts.machine.name.c_str(),
              static_cast<unsigned long long>(opts.chaos_seed), traffic.cores);
  TextTable table({"fault rate", "requests", "degraded", "retries", "trips",
                   "shed", "stale-fresh", "replay", "verdict"});

  struct ServeRateResult {
    std::vector<std::string> row;
    serve::ServeRunResult run;
    bool deterministic = false;
    bool ok = false;
  };
  // Each fault rate is an independent double-run unit (the solver is the
  // cheap synthetic one; the service runs inline). Fan the rates out and
  // reduce in order so the table is byte-identical at any --jobs.
  const engine::Executor executor(opts.jobs);
  const std::vector<ServeRateResult> results =
      executor.map(rates.size(), [&](std::size_t i) {
        serve::ServiceOptions sopts;
        sopts.cache_fault_rate = rates[i];
        sopts.seed = opts.chaos_seed ^ 0xAD115EEDull;
        const std::vector<serve::Family> families = serve::make_families(
            traffic.hot_families, traffic.cold_families);
        const serve::AdvisoryService::Solver solver =
            serve::make_synthetic_solver(families);

        ServeRateResult r;
        r.run = serve::run_serve_sim(traffic, sopts, solver, nullptr);
        const serve::ServeRunResult replay =
            serve::run_serve_sim(traffic, sopts, solver, nullptr);
        r.deterministic = replay.digest == r.run.digest;
        r.ok = r.run.gates_ok() && r.deterministic;
        // A clean schedule must not trip breakers or burn retries.
        if (rates[i] == 0.0 &&
            (r.run.stats.breaker_trips != 0 || r.run.stats.retries != 0)) {
          r.ok = false;
        }
        const auto& s = r.run.stats;
        r.row = {format_percent(rates[i], 0), std::to_string(s.submitted),
                 std::to_string(s.last_known_good + s.no_prefetch),
                 std::to_string(s.retries), std::to_string(s.breaker_trips),
                 std::to_string(s.shed_queue_full + s.shed_infeasible),
                 std::to_string(s.stale_fresh_violations),
                 r.deterministic ? "bytes==" : "DIVERGED",
                 r.ok ? "OK" : "VIOLATION"};
        return r;
      });

  int violations = 0;
  for (const ServeRateResult& r : results) {
    if (!r.ok) ++violations;
    table.add_row(r.row);
  }
  std::fputs(table.render().c_str(), stdout);

  serve::ServeCrashReport crash;
  if (opts.crash_check) {
    crash = serve::serve_crash_check(opts.chaos_seed, 32,
                                     "repf_serve_crash_scratch");
    std::printf("serve crash check: %s -> %s\n", crash.to_string().c_str(),
                crash.ok() ? "OK" : "VIOLATION");
    if (!crash.ok()) ++violations;
  }

  serve::PoisonReport poison;
  if (opts.poison_warm_start) {
    poison = serve::serve_poison_check(opts.chaos_seed, 12,
                                       "repf_serve_poison_scratch");
    std::printf("poisoned warm-start check: %s\n",
                poison.to_string().c_str());
    if (!poison.ok()) ++violations;
  }

  if (!opts.json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"command\": \"chaos\",\n"
         << "  \"serve\": true,\n"
         << "  \"machine\": \"" << json::escape(opts.machine.name) << "\",\n"
         << "  \"seed\": " << opts.chaos_seed << ",\n"
         << "  \"rates\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      json << "    {\n"
           << "    \"fault_rate\": " << json_num(rates[i]) << ",\n"
           << "    \"deterministic\": "
           << (results[i].deterministic ? "true" : "false") << ",\n"
           << serve_stats_json(results[i].run) << ",\n"
           << "    \"ok\": " << (results[i].ok ? "true" : "false") << "\n"
           << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    if (opts.crash_check) {
      json << "  \"crash_check\": {\n"
           << "    \"trials\": " << crash.trials << ",\n"
           << "    \"acked\": " << crash.acked_total << ",\n"
           << "    \"recovered\": " << crash.recovered_total << ",\n"
           << "    \"quarantined\": " << crash.quarantined << ",\n"
           << "    \"lost_acked\": " << crash.lost_acked << ",\n"
           << "    \"alien_entries\": " << crash.alien_entries << ",\n"
           << "    \"ok\": " << (crash.ok() ? "true" : "false") << "\n"
           << "  },\n";
    }
    if (opts.poison_warm_start) {
      json << "  \"poison_warm_start\": {\n"
           << "    \"trials\": " << poison.trials << ",\n"
           << "    \"bitflip_trials\": " << poison.bitflip_trials << ",\n"
           << "    \"stale_fp_trials\": " << poison.stale_fp_trials << ",\n"
           << "    \"truncated_trials\": " << poison.truncated_trials
           << ",\n"
           << "    \"warm_entries_loaded\": " << poison.warm_entries_loaded
           << ",\n"
           << "    \"warm_entries_quarantined\": "
           << poison.warm_entries_quarantined << ",\n"
           << "    \"warm_files_rejected\": " << poison.warm_files_rejected
           << ",\n"
           << "    \"stale_fresh\": " << poison.stale_fresh << ",\n"
           << "    \"alien_served\": " << poison.alien_served << ",\n"
           << "    \"gate_failures\": " << poison.gate_failures << ",\n"
           << "    \"acked_then_lost\": " << poison.acked_then_lost << ",\n"
           << "    \"recovery_failures\": " << poison.recovery_failures
           << ",\n"
           << "    \"ok\": " << (poison.ok() ? "true" : "false") << "\n"
           << "  },\n";
    }
    json << "  \"ok\": " << (violations == 0 ? "true" : "false") << "\n"
         << "}\n";
    const int rc = write_json_report(opts.json_path, json.str());
    if (rc != 0) return rc;
  }

  if (violations > 0) {
    std::printf("chaos FAILED: %d gate violation(s) (reproduce with "
                "--seed %llu)\n",
                violations,
                static_cast<unsigned long long>(opts.chaos_seed));
    return kExitDegraded;
  }
  std::printf("serve chaos gates hold\n");
  return 0;
}

int cmd_chaos(const Options& opts) {
  if (opts.chaos_serve) return cmd_chaos_serve(opts);
  // The full-system chaos mix simulates every core cycle-by-cycle; the
  // [1, 16] cap is a cost bound, not a correctness one, and only applies
  // here (`serve` and `chaos --serve` are virtual-time — no cap).
  const int cores = opts.chaos_cores > 0 ? opts.chaos_cores : 2;
  if (cores > 16) {
    std::fprintf(stderr, "chaos: --cores must be in [1, 16]\n");
    return kExitUsage;
  }

  std::vector<workloads::Program> storage;
  for (int c = 0; c < cores; ++c) {
    storage.push_back(chaos_mix_program(static_cast<std::uint64_t>(c)));
  }
  std::vector<const workloads::Program*> programs;
  for (const workloads::Program& p : storage) programs.push_back(&p);

  runtime::SupervisorOptions sopts;
  sopts.adaptive.window_refs = 1024;
  sopts.adaptive.sampler = core::SamplerConfig{50, 42};
  sopts.adaptive.phases.hysteresis_windows = 1;
  sopts.adaptive.min_reoptimize_refs = 8192;
  sopts.heartbeat_grace_windows = 4;
  sopts.backoff_base_windows = 2;
  sopts.half_open_probe_windows = 2;
  sopts.max_trips = 8;
  sopts.seed = opts.chaos_seed;

  std::vector<double> rates = {0.0, 0.1, 0.25, 0.5};
  if (opts.fault_rate >= 0.0) rates = {opts.fault_rate};

  std::printf("# repf chaos | machine=%s | seed=%llu | %d core(s)\n",
              opts.machine.name.c_str(),
              static_cast<unsigned long long>(opts.chaos_seed), cores);
  TextTable table({"fault rate", "episodes", "trips", "rollbacks",
                   "recoveries", "opens", "worst rec (win)", "vs no-pf",
                   "verdict"});
  // Each fault rate replays its own seeded schedule against its own
  // supervisor instance — independent units, fanned out with ordered
  // reduction so the table is byte-identical at any --jobs.
  struct ChaosRateResult {
    std::vector<std::string> row;
    bool ok = true;
    std::string details;
    // Raw values for the --json report.
    std::size_t episodes = 0;
    std::uint64_t trips = 0, rollbacks = 0, recoveries = 0;
    int opens = 0;
    std::uint64_t worst_recovery_windows = 0;
    double vs_baseline = 0.0;
  };
  const engine::Executor executor(opts.jobs);
  const std::vector<ChaosRateResult> results =
      executor.map(rates.size(), [&](std::size_t i) {
        const double rate = rates[i];
        runtime::ChaosConfig config;
        config.fault_rate = rate;
        config.horizon_refs = storage[0].total_references();
        config.mean_episode_refs = 8192;
        config.cores = cores;
        config.seed = opts.chaos_seed;

        const runtime::ChaosRunResult result = runtime::run_chaos_mix(
            opts.machine, programs, false, config, sopts);

        int opens = 0;
        std::uint64_t rollbacks = 0, recoveries = 0;
        for (const runtime::DomainStats& d : result.domains) {
          if (d.state == runtime::DomainState::Open) ++opens;
          rollbacks += d.rollbacks;
          recoveries += d.recoveries;
        }
        // The recovery gates: never-hurts within 1 %, recovery within 64
        // windows, no permanently open circuit, no false-positive trips on
        // a clean schedule.
        ChaosRateResult r;
        r.ok = result.worst_vs_baseline <= 1.01 &&
               result.worst_recovery_windows <= 64 && opens == 0;
        if (rate == 0.0 && result.total_trips != 0) r.ok = false;
        r.episodes = result.schedule.episodes().size();
        r.trips = result.total_trips;
        r.rollbacks = rollbacks;
        r.recoveries = recoveries;
        r.opens = opens;
        r.worst_recovery_windows = result.worst_recovery_windows;
        r.vs_baseline = result.worst_vs_baseline;
        r.row = {format_percent(rate, 0),
                 std::to_string(result.schedule.episodes().size()),
                 std::to_string(result.total_trips),
                 std::to_string(rollbacks), std::to_string(recoveries),
                 std::to_string(opens),
                 std::to_string(result.worst_recovery_windows),
                 format_double(result.worst_vs_baseline, 4),
                 r.ok ? "OK" : "VIOLATION"};
        if (opts.verbose) {
          r.details += "-- schedule @ " + format_percent(rate, 0) + "\n" +
                       result.schedule.to_string();
          for (int core = 0; core < static_cast<int>(result.domains.size());
               ++core) {
            r.details += "   core " + std::to_string(core) + ": " +
                         result.domains[core].to_string() + "\n";
          }
        }
        return r;
      });

  int violations = 0;
  std::string details;
  for (const ChaosRateResult& r : results) {
    if (!r.ok) ++violations;
    table.add_row(r.row);
    details += r.details;
  }
  std::fputs(table.render().c_str(), stdout);
  if (opts.verbose) std::fputs(details.c_str(), stdout);

  runtime::CacheCrashReport crash;
  bool crash_ok = true;
  if (opts.crash_check) {
    crash = runtime::chaos_cache_crash_check(opts.chaos_seed, 64,
                                             "repf_chaos_cache_scratch.json");
    crash_ok = crash.failed_loads == 0 && crash.accounting_errors == 0 &&
               crash.survives_torn_write;
    std::printf("cache crash check: %s -> %s\n", crash.to_string().c_str(),
                crash_ok ? "OK" : "VIOLATION");
    if (!crash_ok) ++violations;
  }

  if (!opts.json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"command\": \"chaos\",\n"
         << "  \"serve\": false,\n"
         << "  \"machine\": \"" << json::escape(opts.machine.name) << "\",\n"
         << "  \"seed\": " << opts.chaos_seed << ",\n"
         << "  \"cores\": " << cores << ",\n"
         << "  \"rates\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ChaosRateResult& r = results[i];
      json << "    {\"fault_rate\": " << json_num(rates[i])
           << ", \"episodes\": " << r.episodes << ", \"trips\": " << r.trips
           << ", \"rollbacks\": " << r.rollbacks
           << ", \"recoveries\": " << r.recoveries
           << ", \"opens\": " << r.opens
           << ", \"worst_recovery_windows\": " << r.worst_recovery_windows
           << ", \"worst_vs_baseline\": " << json_num(r.vs_baseline)
           << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    if (opts.crash_check) {
      json << "  \"crash_check\": {\n"
           << "    \"trials\": " << crash.trials << ",\n"
           << "    \"clean_loads\": " << crash.clean_loads << ",\n"
           << "    \"degraded_loads\": " << crash.degraded_loads << ",\n"
           << "    \"failed_loads\": " << crash.failed_loads << ",\n"
           << "    \"entries_recovered\": " << crash.entries_recovered << ",\n"
           << "    \"accounting_errors\": " << crash.accounting_errors << ",\n"
           << "    \"survives_torn_write\": "
           << (crash.survives_torn_write ? "true" : "false") << ",\n"
           << "    \"ok\": " << (crash_ok ? "true" : "false") << "\n"
           << "  },\n";
    }
    json << "  \"ok\": " << (violations == 0 ? "true" : "false") << "\n"
         << "}\n";
    const int rc = write_json_report(opts.json_path, json.str());
    if (rc != 0) return rc;
  }

  if (violations > 0) {
    std::printf("chaos FAILED: %d gate violation(s) (reproduce with "
                "--seed %llu)\n",
                violations,
                static_cast<unsigned long long>(opts.chaos_seed));
    return kExitDegraded;
  }
  std::printf("chaos recovery gates hold\n");
  return 0;
}

/// Check `rendered` against the snapshot at `path`, or with `bless` rewrite
/// the snapshot. Prints one "== <what>: ..." line and returns the status:
/// "blessed", "match", "missing", "differs" or "unwritable"; the last three
/// set `failed`.
std::string check_golden(const char* what, const std::string& path,
                         const std::string& rendered, bool bless,
                         bool& failed) {
  if (bless) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "repf: cannot write %s\n", path.c_str());
      failed = true;
      return "unwritable";
    }
    out << rendered;
    std::printf("== %s: blessed %s\n", what, path.c_str());
    return "blessed";
  }
  std::ifstream in(path);
  if (!in) {
    std::printf("== %s: %s missing (run with --bless)\n", what, path.c_str());
    failed = true;
    return "missing";
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string diff = verify::diff_golden(text.str(), rendered);
  if (diff.empty()) {
    std::printf("== %s: %s matches\n", what, path.c_str());
    return "match";
  }
  std::printf("== %s: %s DIFFERS (-golden/+current)\n%s", what, path.c_str(),
              diff.c_str());
  failed = true;
  return "differs";
}

int cmd_verify(const Options& opts) {
  std::vector<verify::TraceFamily> families;
  if (opts.families.empty()) {
    families = verify::all_trace_families();
  } else {
    std::istringstream list(opts.families);
    std::string name;
    while (std::getline(list, name, ',')) {
      bool found = false;
      for (verify::TraceFamily family : verify::all_trace_families()) {
        if (name == verify::trace_family_name(family)) {
          families.push_back(family);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown fuzzer family: %s\n", name.c_str());
        return kExitUsage;
      }
    }
  }

  constexpr std::uint64_t kVariants = 2;
  std::printf("# repf verify | machine=%s | seed=%llu | %zu families x %llu"
              " variants\n",
              opts.machine.name.c_str(),
              static_cast<unsigned long long>(opts.verify_seed),
              families.size(), static_cast<unsigned long long>(kVariants));

  bool failed = false;
  std::printf("== differential oracle: StatStack vs exact LRU\n");
  TextTable table({"family", "var", "refs", "samples", "max app err", "bound",
                   "mddli", "bypass", "verdict"});

  // Every (family, variant) trace is an independent differential unit; fan
  // them out over the engine executor and reduce in declaration order so
  // the report is byte-identical at any --jobs.
  struct Unit {
    verify::TraceFamily family;
    std::uint64_t variant;
  };
  std::vector<Unit> units;
  for (const verify::TraceFamily family : families) {
    for (std::uint64_t variant = 0; variant < kVariants; ++variant) {
      units.push_back({family, variant});
    }
  }
  struct UnitResult {
    std::string family;
    std::uint64_t variant = 0;
    std::uint64_t references = 0;
    std::uint64_t samples = 0;
    double app_error = 0.0;
    double bound = 0.0;
    double mddli = 0.0;
    double bypass = 0.0;
    bool ok = false;
    std::string report;
  };
  const engine::Executor executor(opts.jobs);
  const std::vector<UnitResult> unit_results =
      executor.map(units.size(), [&](std::size_t i) {
        const Unit& unit = units[i];
        const verify::FuzzedTrace trace =
            verify::make_trace(unit.family, opts.verify_seed, unit.variant);
        const verify::DifferentialResult result =
            verify::run_differential(trace.program, opts.machine);

        UnitResult r;
        r.family = verify::trace_family_name(unit.family);
        r.variant = unit.variant;
        r.references = static_cast<std::uint64_t>(result.references);
        r.samples = static_cast<std::uint64_t>(result.reuse_samples);
        r.app_error = result.max_application_error();
        r.bound = verify::family_app_error_bound(unit.family);
        r.mddli = result.mddli_agreement();
        r.bypass = result.bypass_agreement();
        r.ok = r.app_error <= r.bound &&
               r.mddli >= verify::kMinDecisionAgreement &&
               r.bypass >= verify::kMinDecisionAgreement;
        if (opts.verbose || !r.ok) r.report = result.to_string();
        return r;
      });

  std::string reports;
  for (const UnitResult& r : unit_results) {
    if (!r.ok) failed = true;
    table.add_row({r.family, std::to_string(r.variant),
                   std::to_string(r.references), std::to_string(r.samples),
                   format_percent(r.app_error), format_percent(r.bound),
                   format_percent(r.mddli), format_percent(r.bypass),
                   r.ok ? "OK" : "FAIL"});
    reports += r.report;
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs(reports.c_str(), stdout);

  std::string golden_status = "skipped";
  std::string run_golden_status = "skipped";
  if (!opts.golden_dir.empty()) {
    golden_status = check_golden(
        "golden plans",
        opts.golden_dir + "/" + verify::golden_filename(opts.machine.name),
        verify::render_golden(
            verify::compute_suite_plans(opts.machine, &executor),
            opts.machine.name),
        opts.bless, failed);
    run_golden_status = check_golden(
        "golden runs",
        opts.golden_dir + "/" +
            verify::runs_golden_filename(opts.machine.name),
        verify::render_runs_golden(opts.machine, &executor), opts.bless,
        failed);
  }

  if (!opts.json_path.empty()) {
    const auto& num = json_num;
    std::ostringstream json;
    json << "{\n"
         << "  \"command\": \"verify\",\n"
         << "  \"machine\": \"" << json::escape(opts.machine.name) << "\",\n"
         << "  \"seed\": " << opts.verify_seed << ",\n"
         << "  \"traces\": [\n";
    for (std::size_t i = 0; i < unit_results.size(); ++i) {
      const UnitResult& r = unit_results[i];
      json << "    {\"family\": \"" << json::escape(r.family)
           << "\", \"variant\": " << r.variant
           << ", \"references\": " << r.references
           << ", \"samples\": " << r.samples
           << ", \"max_application_error\": " << num(r.app_error)
           << ", \"bound\": " << num(r.bound)
           << ", \"mddli_agreement\": " << num(r.mddli)
           << ", \"bypass_agreement\": " << num(r.bypass)
           << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
           << (i + 1 < unit_results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"golden\": \"" << json::escape(golden_status) << "\",\n"
         << "  \"run_golden\": \"" << json::escape(run_golden_status)
         << "\",\n"
         << "  \"ok\": " << (failed ? "false" : "true") << "\n"
         << "}\n";
    const int rc = write_json_report(opts.json_path, json.str());
    if (rc != 0) return rc;
  }

  std::printf(failed ? "verify FAILED\n" : "verify clean\n");
  return failed ? kExitFailure : 0;
}

// repf corun: the multi-programmed scenario matrix. Every (core count,
// scenario) cell runs the composed co-run model against the exact
// shared-LRU oracle and checks the per-family error bounds plus the
// integer attribution identity; the streaming-vs-chase row additionally
// re-runs with hardware prefetching modeled and checks that the composition
// *predicts* the chase victim's degradation. Exit: kExitFailure on any
// bound/prediction violation (output names the seed).
int cmd_corun(const Options& opts) {
  std::vector<int> core_counts = {2, 4, 8};
  if (opts.chaos_cores != 0) {
    if (opts.chaos_cores > 16) {
      std::fprintf(stderr, "corun --cores caps at 16\n");
      return kExitUsage;
    }
    core_counts = {opts.chaos_cores};
  }

  std::printf("# repf corun | machine=%s | seed=%llu\n",
              opts.machine.name.c_str(),
              static_cast<unsigned long long>(opts.verify_seed));

  // Every (core count, scenario, hw) cell is an independent unit; fan out
  // over the engine executor and reduce in declaration order so the report
  // is byte-identical at any --jobs. hw=true cells exist only for the
  // interference-prediction row (streaming_vs_chase).
  struct Unit {
    int cores = 0;
    verify::CoRunScenario scenario;
    bool hw = false;
  };
  std::vector<Unit> units;
  for (const int cores : core_counts) {
    for (verify::CoRunScenario& scenario : verify::corun_scenarios(cores)) {
      const bool interference = scenario.name == "streaming_vs_chase";
      units.push_back({cores, scenario, false});
      if (interference) units.push_back({cores, std::move(scenario), true});
    }
  }

  struct UnitResult {
    verify::CoRunDifferentialResult result;
    double worst_margin = 0.0;  // max over cores of (error - bound)
    bool ok = false;
    std::string report;
  };
  const engine::Executor executor(opts.jobs);
  const std::vector<UnitResult> unit_results =
      executor.map(units.size(), [&](std::size_t i) {
        const Unit& unit = units[i];
        verify::CoRunDifferentialOptions options;
        options.model_hw_prefetch = unit.hw;
        UnitResult r;
        r.result = verify::run_corun_differential(
            unit.scenario, opts.machine, opts.verify_seed, options);
        r.ok = r.result.attribution_exact;
        r.worst_margin = -1.0;
        for (std::size_t core = 0; core < r.result.per_core.size(); ++core) {
          const double bound = verify::corun_family_error_bound(
              unit.scenario.families[core], unit.cores);
          const double margin =
              r.result.per_core[core].max_error() - bound;
          r.worst_margin = std::max(r.worst_margin, margin);
          if (margin > 0.0) r.ok = false;
        }
        if (opts.verbose || !r.ok) r.report = r.result.to_string();
        return r;
      });

  bool failed = false;
  std::printf("== composed co-run model vs exact shared-LRU oracle\n");
  TextTable table({"cores", "scenario", "hw", "accesses", "max err", "margin",
                   "attrib", "verdict"});
  std::string reports;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitResult& r = unit_results[i];
    if (!r.ok) failed = true;
    std::uint64_t accesses = 0;
    for (const verify::CoRunCoreComparison& c : r.result.per_core) {
      accesses += c.accesses;
    }
    table.add_row({std::to_string(units[i].cores), r.result.scenario,
                   units[i].hw ? "on" : "off", std::to_string(accesses),
                   format_percent(r.result.max_error()),
                   format_percent(r.worst_margin),
                   r.result.attribution_exact ? "exact" : "BROKEN",
                   r.ok ? "OK" : "FAIL"});
    reports += r.report;
  }
  std::fputs(table.render().c_str(), stdout);
  std::fputs(reports.c_str(), stdout);

  // Interference prediction: a pointer-chase victim vs sparse streaming
  // aggressors whose speculative adjacent-line prefetcher fills only the
  // skipped buddy lines — pure pollution, the paper's motivating co-run
  // pathology. The composition must *predict* the victim's degradation
  // before any run (higher shared-LLC miss ratio, no larger capacity
  // share) and the exact interleaved-LRU oracle must confirm it.
  std::printf("== interference prediction (chase victim vs streaming)\n");
  const std::vector<verify::CoRunInterference> interference_results =
      executor.map(core_counts.size(), [&](std::size_t i) {
        return verify::run_corun_interference(opts.machine, core_counts[i],
                                              opts.verify_seed);
      });
  TextTable interference({"cores", "mr off", "mr on", "exact off", "exact on",
                          "share off", "share on", "verdict"});
  for (const verify::CoRunInterference& r : interference_results) {
    const bool ok = r.predicted() && r.confirmed();
    if (!ok) failed = true;
    interference.add_row(
        {std::to_string(r.cores), format_percent(r.victim_mr_off),
         format_percent(r.victim_mr_on), format_percent(r.exact_mr_off),
         format_percent(r.exact_mr_on),
         std::to_string(r.share_off) + "/" + std::to_string(r.llc_lines),
         std::to_string(r.share_on) + "/" + std::to_string(r.llc_lines),
         ok ? "degrades (OK)"
            : (r.predicted() ? "NOT CONFIRMED" : "NOT PREDICTED")});
  }
  std::fputs(interference.render().c_str(), stdout);
  if (opts.verbose) {
    for (const verify::CoRunInterference& r : interference_results) {
      std::fputs(r.to_string().c_str(), stdout);
    }
  }

  std::string golden_status = "skipped";
  if (!opts.golden_dir.empty()) {
    golden_status = check_golden(
        "co-run golden plans",
        opts.golden_dir + "/" +
            verify::corun_golden_filename(opts.machine.name),
        verify::render_corun_golden(
            verify::compute_corun_suite_plans(opts.machine, &executor),
            opts.machine.name),
        opts.bless, failed);
  }

  if (!opts.json_path.empty()) {
    const auto& num = json_num;
    std::ostringstream json;
    json << "{\n"
         << "  \"command\": \"corun\",\n"
         << "  \"machine\": \"" << json::escape(opts.machine.name) << "\",\n"
         << "  \"seed\": " << opts.verify_seed << ",\n"
         << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < unit_results.size(); ++i) {
      const UnitResult& r = unit_results[i];
      json << "    {\"scenario\": \"" << json::escape(r.result.scenario)
           << "\", \"cores\": " << units[i].cores
           << ", \"hw\": " << (units[i].hw ? "true" : "false")
           << ", \"max_error\": " << num(r.result.max_error())
           << ", \"worst_margin\": " << num(r.worst_margin)
           << ", \"attribution_exact\": "
           << (r.result.attribution_exact ? "true" : "false")
           << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
           << (i + 1 < unit_results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"interference\": [\n";
    for (std::size_t i = 0; i < interference_results.size(); ++i) {
      const verify::CoRunInterference& r = interference_results[i];
      json << "    {\"cores\": " << r.cores
           << ", \"victim_mr_off\": " << num(r.victim_mr_off)
           << ", \"victim_mr_on\": " << num(r.victim_mr_on)
           << ", \"exact_mr_off\": " << num(r.exact_mr_off)
           << ", \"exact_mr_on\": " << num(r.exact_mr_on)
           << ", \"share_off\": " << r.share_off
           << ", \"share_on\": " << r.share_on
           << ", \"predicted\": " << (r.predicted() ? "true" : "false")
           << ", \"confirmed\": " << (r.confirmed() ? "true" : "false") << "}"
           << (i + 1 < interference_results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"golden\": \"" << json::escape(golden_status) << "\",\n"
         << "  \"ok\": " << (failed ? "false" : "true") << "\n"
         << "}\n";
    const int rc = write_json_report(opts.json_path, json.str());
    if (rc != 0) return rc;
  }

  if (failed) {
    std::printf("corun FAILED (seed=%llu)\n",
                static_cast<unsigned long long>(opts.verify_seed));
    return kExitFailure;
  }
  std::printf("corun clean\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options opts;
  opts.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--machine") {
      if (++i >= argc) return usage();
      const std::string which = argv[i];
      if (which == "amd") {
        opts.machine = sim::amd_phenom_ii();
      } else if (which == "intel") {
        opts.machine = sim::intel_sandybridge();
      } else {
        std::fprintf(stderr, "unknown machine: %s\n", which.c_str());
        return kExitUsage;
      }
    } else if (arg == "--hw") {
      opts.hw_prefetch = true;
    } else if (arg == "--optimize") {
      opts.optimize = true;
    } else if (arg == "--no-nt") {
      opts.enable_nt = false;
    } else if (arg == "--stride-centric") {
      opts.stride_centric = true;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--rate") {
      if (++i >= argc) return usage();
      opts.fault_rate = std::atof(argv[i]) / 100.0;
      if (opts.fault_rate < 0.0 || opts.fault_rate > 1.0) {
        std::fprintf(stderr, "--rate must be in [0, 100]\n");
        return kExitUsage;
      }
    } else if (arg == "--seed") {
      if (++i >= argc) return usage();
      opts.fault_seed = static_cast<std::uint64_t>(std::atoll(argv[i]));
      opts.verify_seed = opts.fault_seed;
      opts.chaos_seed = opts.fault_seed;
    } else if (arg == "--cores") {
      if (++i >= argc) return usage();
      // Upper bound is per-command: chaos caps at 16 (cycle-accurate cores
      // are expensive), serve takes any count (virtual-time clients).
      const long long cores = std::atoll(argv[i]);
      if (cores < 1 || cores > 1'000'000) {
        std::fprintf(stderr, "--cores must be in [1, 1000000]\n");
        return kExitUsage;
      }
      opts.chaos_cores = static_cast<int>(cores);
    } else if (arg == "--steps") {
      if (++i >= argc) return usage();
      const long long steps = std::atoll(argv[i]);
      if (steps < 1 || steps > 100'000'000) {
        std::fprintf(stderr, "--steps must be in [1, 100000000]\n");
        return kExitUsage;
      }
      opts.serve_steps = static_cast<std::uint64_t>(steps);
    } else if (arg == "--serve") {
      opts.chaos_serve = true;
    } else if (arg == "--crash-check") {
      opts.crash_check = true;
    } else if (arg == "--poison-warm-start") {
      opts.poison_warm_start = true;
    } else if (arg == "--journal") {
      if (++i >= argc) return usage();
      opts.serve_journal_dir = argv[i];
    } else if (arg == "--warm-start") {
      if (++i >= argc) return usage();
      opts.warm_start_dir = argv[i];
    } else if (arg == "--families") {
      if (++i >= argc) return usage();
      opts.families = argv[i];
    } else if (arg == "--golden") {
      if (++i >= argc) return usage();
      opts.golden_dir = argv[i];
    } else if (arg == "--bless") {
      opts.bless = true;
    } else if (arg == "--window") {
      if (++i >= argc) return usage();
      const long long window = std::atoll(argv[i]);
      if (window <= 0) {
        std::fprintf(stderr, "--window must be positive\n");
        return kExitUsage;
      }
      opts.window = static_cast<std::uint64_t>(window);
    } else if (arg == "--threshold") {
      if (++i >= argc) return usage();
      opts.threshold = std::atof(argv[i]);
      if (opts.threshold <= 0.0 || opts.threshold > 2.0) {
        std::fprintf(stderr, "--threshold must be in (0, 2]\n");
        return kExitUsage;
      }
    } else if (arg == "--jobs") {
      if (++i >= argc) return usage();
      const long long jobs = std::atoll(argv[i]);
      if (jobs < 1 || jobs > 256) {
        std::fprintf(stderr, "--jobs must be in [1, 256]\n");
        return kExitUsage;
      }
      opts.jobs = static_cast<int>(jobs);
    } else if (arg == "--json") {
      if (++i >= argc) return usage();
      opts.json_path = argv[i];
    } else if (arg == "--save-cache") {
      if (++i >= argc) return usage();
      opts.save_cache = argv[i];
    } else if (arg == "--load-cache") {
      if (++i >= argc) return usage();
      opts.load_cache = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (!arg.empty() && arg[0] != '-' && opts.target.empty()) {
      opts.target = arg;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return kExitUsage;
    }
  }

  if (opts.command == "--help" || opts.command == "-h" ||
      opts.command == "help") {
    usage();
    return 0;
  }
  if (opts.help) {
    const char* help = help_for(opts.command);
    if (!help) return usage();
    std::fputs(help, stdout);
    return 0;
  }

  try {
    if (opts.command == "list") return cmd_list();
    if (opts.command == "commands") return cmd_commands();
    if (opts.command == "verify") return cmd_verify(opts);
    if (opts.command == "corun") return cmd_corun(opts);
    if (opts.command == "chaos") return cmd_chaos(opts);
    if (opts.command == "serve") return cmd_serve(opts);
    if (opts.target.empty()) return usage();
    if (opts.command == "dump") return cmd_dump(opts);
    if (opts.command == "optimize") return cmd_optimize(opts);
    if (opts.command == "run") return cmd_run(opts);
    if (opts.command == "coverage") return cmd_coverage(opts);
    if (opts.command == "phases") return cmd_phases(opts);
    if (opts.command == "adapt") return cmd_adapt(opts);
    if (opts.command == "faultcheck") return cmd_faultcheck(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repf: %s\n", e.what());
    return kExitFailure;
  }
  return usage();
}
