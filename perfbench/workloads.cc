#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/experiments.hh"
#include "engine/executor.hh"
#include "engine/pipeline.hh"
#include "serve/harness.hh"
#include "serve/service.hh"
#include "sim/system.hh"
#include "support/checksum.hh"
#include "support/rng.hh"
#include "workloads/cursor.hh"
#include "workloads/mix.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace re;
using analysis::Policy;

using Clock = std::chrono::steady_clock;

constexpr int kSuiteWorkers = 4;
constexpr int kServeWorkers = 1;
constexpr std::size_t kMaxReasons = 5;

// evaluate_benchmark's policy order.
constexpr Policy kSuitePolicies[] = {Policy::Baseline, Policy::Hardware,
                                     Policy::Software, Policy::SoftwareNT,
                                     Policy::StrideCentric};
// evaluate_mix's default policies.
constexpr Policy kMixPolicies[] = {Policy::Baseline, Policy::Hardware,
                                   Policy::SoftwareNT};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void fail(PassReport& report, std::string reason) {
  ++report.failed;
  if (report.failures.size() < kMaxReasons) {
    report.failures.push_back(std::move(reason));
  }
}

/// Modelled memory-system counters summed over simulated runs.
struct SimTotals {
  double loads = 0, l1_misses = 0, dram_lines = 0, sw_prefetches = 0,
         sw_useless = 0, hw_lines = 0, hw_useless = 0, late = 0, stall = 0;

  void add(const sim::RunResult& run) {
    for (const sim::AppResult& app : run.apps) {
      const sim::CoreMemStats& m = app.mem;
      loads += static_cast<double>(m.loads);
      l1_misses += static_cast<double>(m.l1_misses());
      sw_prefetches += static_cast<double>(m.sw_prefetches_issued);
      sw_useless += static_cast<double>(m.useless_sw_evictions);
      hw_lines += static_cast<double>(m.hw_prefetch_dram_lines);
      hw_useless += static_cast<double>(m.useless_hw_evictions);
      late += static_cast<double>(m.late_prefetch_hits);
      stall += static_cast<double>(m.memory_stall_cycles);
    }
    dram_lines += static_cast<double>(run.dram.total_lines());
  }

  void emit(std::map<std::string, double>& out) const {
    out["sim.refs"] = loads;
    out["sim.l1_miss_ratio"] = ratio(l1_misses, loads);
    out["sim.dram_lines"] = dram_lines;
    out["sim.sw_prefetches"] = sw_prefetches;
    out["sim.sw_useless_pct"] = 100.0 * ratio(sw_useless, sw_prefetches);
    out["sim.hw_useless_pct"] = 100.0 * ratio(hw_useless, hw_lines);
    out["sim.late_prefetch_pct"] = 100.0 * ratio(late, loads);
    out["sim.memory_stall_cycles"] = stall;
  }
};

/// Sampling and planning counters summed over optimization reports.
struct CoreTotals {
  double reuse = 0, stride = 0, delinquent = 0, plans = 0, plans_nt = 0;

  void add(const core::OptimizationReport& report) {
    reuse += static_cast<double>(report.profile.reuse_samples.size());
    stride += static_cast<double>(report.profile.stride_samples.size());
    delinquent += static_cast<double>(report.delinquent_loads.size());
    plans += static_cast<double>(report.plans.size());
    for (const core::PrefetchPlan& plan : report.plans) {
      if (plan.hint == workloads::PrefetchHint::NTA) ++plans_nt;
    }
  }

  void emit(std::map<std::string, double>& out) const {
    out["core.reuse_samples"] = reuse;
    out["core.stride_samples"] = stride;
    out["core.delinquent_loads"] = delinquent;
    out["core.plans"] = plans;
    out["core.plans_nt"] = plans_nt;
    out["core.plan_yield"] = ratio(plans, delinquent);
  }
};

std::string render_cycles(const sim::RunResult& run) {
  std::string out;
  for (const sim::AppResult& app : run.apps) {
    if (!out.empty()) out += ',';
    out += std::to_string(app.cycles);
  }
  return out;
}

std::vector<const workloads::Program*> pointers(
    const std::vector<workloads::Program>& programs) {
  std::vector<const workloads::Program*> out;
  for (const workloads::Program& program : programs) out.push_back(&program);
  return out;
}

/// Probe: one ProgramCursor walk over each program.
void walk_cursors(Tracer& tracer,
                  const std::vector<const workloads::Program*>& programs,
                  std::map<std::string, double>& counters) {
  for (const workloads::Program* program : programs) {
    Span span(&tracer, "workloads.cursor");
    workloads::ProgramCursor cursor(*program);
    std::uint64_t refs = 0;
    while (cursor.next()) ++refs;
    counters["probe.cursor_refs"] += static_cast<double>(refs);
  }
}

/// Probe: engine::run_optimize with default options, serially, one stage of
/// engine::optimize_graph() at a time (the same order and gates as
/// StageGraph::run), with a span per stage.
void walk_optimize_stages(
    Tracer& tracer, const std::vector<const workloads::Program*>& programs,
    const sim::MachineConfig& machine, std::map<std::string, double>& counters,
    CoreTotals* core_totals) {
  const auto& stages = engine::optimize_graph().stages();
  std::vector<const char*> names;
  for (const auto& stage : stages) {
    names.push_back(tracer.intern("engine.stage_" + stage.name));
  }
  const engine::EngineContext ctx;
  for (const workloads::Program* program : programs) {
    Span span(&tracer, "engine.optimize");
    engine::OptimizeArtifacts a;
    a.program = program;
    a.machine = &machine;
    a.report.benchmark = program->name;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      if (stages[s].enabled && !stages[s].enabled(a)) continue;
      Span stage_span(&tracer, names[s]);
      stages[s].run(a, ctx);
    }
    counters["probe.sampler_refs"] +=
        static_cast<double>(a.report.profile.total_references);
    if (core_totals != nullptr) core_totals->add(a.report);
  }
}

// ---- suite ---------------------------------------------------------------

/// Closed batch: a cold analysis and evaluation of the Table I suite on both
/// machines per pass, from a fresh PlanCache, over 4 engine workers.
class SuiteWorkload : public Workload {
 public:
  explicit SuiteWorkload(const std::string& golden_dir)
      : machines_{sim::amd_phenom_ii(), sim::intel_sandybridge()},
        names_(workloads::suite_names()),
        programs_(workloads::make_suite(workloads::InputSet::Reference)),
        executor_(kSuiteWorkers) {
    for (const sim::MachineConfig& machine : machines_) {
      golden_.emplace_back(golden_dir, machine);
    }
  }

  std::uint64_t ops_per_pass() const override {
    return machines_.size() * names_.size();
  }

  void run_pass(Tracer* tracer) override {
    cache_ = std::make_unique<analysis::PlanCache>();
    evals_.clear();
    part_s_.clear();
    for (const sim::MachineConfig& machine : machines_) {
      const Clock::time_point start = Clock::now();
      if (tracer == nullptr) {
        evals_.push_back(
            analysis::evaluate_suite(machine, names_, *cache_, &executor_));
      } else {
        // A copy of analysis::evaluate_suite, one level down: the executor
        // fan-out over evaluate_benchmark units.
        Span suite(tracer, "analysis.evaluate_suite");
        Span fan_out(tracer, "engine.map");
        const std::int64_t parent = fan_out.id();
        evals_.push_back(executor_.map(names_.size(), [&](std::size_t i) {
          Span unit(tracer, "engine.unit", parent);
          return evaluate_benchmark(tracer, machine, names_[i]);
        }));
      }
      part_s_.push_back(seconds_since(start));
    }
  }

  /// One part per machine.
  std::vector<double> part_seconds() const override { return part_s_; }

  PassReport check_pass(Checker& checker) override {
    PassReport report;
    SimTotals sim_totals;
    CoreTotals core_totals;
    double log_speedup = 0.0, traffic = 0.0;
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      const std::string slug = machine_slug(machines_[m]);
      for (std::size_t i = 0; i < names_.size(); ++i) {
        ++report.attempted;
        const analysis::BenchmarkEvaluation& eval = evals_[m][i];
        std::string cycles;
        for (Policy policy : kSuitePolicies) {
          const sim::RunResult& run = eval.runs.at(policy);
          sim_totals.add(run);
          if (!cycles.empty()) cycles += ' ';
          cycles += render_cycles(run);
        }
        const core::OptimizationReport& nt =
            cache_->report(machines_[m], names_[i], Policy::SoftwareNT);
        core_totals.add(nt);
        std::string reason = checker.check(
            "suite/" + slug + "/" + names_[i], cycles, /*required=*/true);
        if (reason.empty()) reason = golden_[m].check(names_[i], nt.plans);
        if (!reason.empty()) fail(report, reason);
        log_speedup += std::log(eval.speedup(Policy::SoftwareNT));
        traffic += eval.traffic_increase(Policy::SoftwareNT);
      }
    }
    const double n = static_cast<double>(report.attempted);
    report.work = n;
    report.outcomes["speedup_nt"] = std::exp(log_speedup / n);
    report.outcomes["traffic_nt_pct"] = 100.0 * traffic / n;
    sim_totals.emit(report.outcomes);
    core_totals.emit(report.outcomes);
    return report;
  }

  void probe(Tracer& tracer, std::map<std::string, double>& counters) override {
    walk_cursors(tracer, pointers(programs_), counters);
    walk_optimize_stages(tracer, pointers(programs_), machines_[0], counters,
                         nullptr);
  }

 private:
  /// A copy of analysis::evaluate_benchmark (src/analysis/experiments.cc),
  /// one level down so spans can sit inside it: the PlanCache report each
  /// optimized policy needs (cold in a fresh cache, so it runs the
  /// optimize), then PlanCache::prepare and the simulated run.
  analysis::BenchmarkEvaluation evaluate_benchmark(
      Tracer* tracer, const sim::MachineConfig& machine,
      const std::string& benchmark) {
    Span span(tracer, "analysis.evaluate_benchmark");
    analysis::BenchmarkEvaluation eval;
    eval.name = benchmark;
    for (Policy policy : kSuitePolicies) {
      if (policy != Policy::Baseline && policy != Policy::Hardware) {
        Span report(tracer, "analysis.report");
        cache_->report(machine, benchmark, policy);
      }
      const workloads::Program program = cache_->prepare(
          machine, benchmark, workloads::InputSet::Reference, policy);
      Span run(tracer, "sim.run_single");
      eval.runs.emplace(policy, sim::run_single(machine, program,
                                                policy == Policy::Hardware));
    }
    return eval;
  }

  std::vector<sim::MachineConfig> machines_;
  std::vector<std::string> names_;
  std::vector<workloads::Program> programs_;
  engine::Executor executor_;
  std::vector<GoldenPlans> golden_;
  std::unique_ptr<analysis::PlanCache> cache_;
  std::vector<std::vector<analysis::BenchmarkEvaluation>> evals_;
  std::vector<double> part_s_;
};

// ---- mix -----------------------------------------------------------------

/// The six suite benchmarks with the longest solo Baseline runs on the AMD
/// machine (suite/amd_phenom_ii/* in expected.txt).
bool long_running(const std::string& name) {
  for (const char* slow : {"mcf", "astar", "lbm", "gcc", "omnetpp", "xalan"}) {
    if (name == slow) return true;
  }
  return false;
}

/// The seed's mixes: the suite split into three 4-app mixes of two
/// long-running and two other benchmarks, with the grouping and each mix's
/// core placement shuffled by the seed. Every benchmark runs once per pass,
/// and no mix is short of a long-running app, which keeps the simulated
/// work of a pass from varying much with the seed (a mix lasts until its
/// slowest app completes; faster apps restart).
std::vector<workloads::MixSpec> seeded_mixes(std::uint64_t seed) {
  std::vector<std::string> slow, fast;
  for (const std::string& name : workloads::suite_names()) {
    (long_running(name) ? slow : fast).push_back(name);
  }
  Rng rng(seed);
  const auto shuffle = [&rng](std::vector<std::string>& names) {
    for (std::size_t i = names.size() - 1; i > 0; --i) {
      std::swap(names[i], names[rng.next(i + 1)]);
    }
  };
  shuffle(slow);
  shuffle(fast);
  std::vector<workloads::MixSpec> mixes(slow.size() / 2);
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    mixes[m].apps = {slow[2 * m], slow[2 * m + 1], fast[2 * m],
                     fast[2 * m + 1]};
    shuffle(mixes[m].apps);
  }
  return mixes;
}

/// Closed batch, serial: the seed's 4-app mixes under Baseline, Hardware and
/// SoftwareNT on the AMD machine. Plans are prepared in set-up.
class MixWorkload : public Workload {
 public:
  MixWorkload(std::uint64_t seed, const std::string& golden_dir)
      : machine_(sim::amd_phenom_ii()),
        mixes_(seeded_mixes(seed)),
        golden_(golden_dir, machine_) {
    for (const workloads::MixSpec& spec : mixes_) {
      for (const std::string& app : spec.apps) {
        cache_.report(machine_, app, Policy::SoftwareNT);
        programs_.push_back(
            workloads::make_benchmark(app, workloads::InputSet::Reference));
      }
    }
  }

  std::uint64_t ops_per_pass() const override { return mixes_.size(); }

  void run_pass(Tracer* tracer) override {
    evals_.clear();
    part_s_.clear();
    for (const workloads::MixSpec& spec : mixes_) {
      const Clock::time_point start = Clock::now();
      evals_.push_back(tracer == nullptr
                           ? analysis::evaluate_mix(machine_, spec, cache_)
                           : evaluate_mix(tracer, spec));
      part_s_.push_back(seconds_since(start));
    }
  }

  /// One part per mix: with only a few passes in a run, timing the mixes
  /// apart keeps a burst of host noise in one mix from counting against
  /// the others.
  std::vector<double> part_seconds() const override { return part_s_; }

  PassReport check_pass(Checker& checker) override {
    PassReport report;
    SimTotals sim_totals;
    CoreTotals core_totals;
    double ws = 0.0, traffic = 0.0;
    for (const analysis::MixEvaluation& eval : evals_) {
      ++report.attempted;
      std::string key = "mix/" + machine_slug(machine_) + "/";
      std::string cycles;
      for (std::size_t core = 0; core < eval.spec.apps.size(); ++core) {
        if (core != 0) key += ',';
        key += eval.spec.apps[core];
      }
      for (Policy policy : kMixPolicies) {
        sim_totals.add(eval.runs.at(policy));
        if (!cycles.empty()) cycles += ' ';
        cycles += render_cycles(eval.runs.at(policy));
      }
      std::string reason = checker.check(key, cycles, /*required=*/false);
      for (const std::string& app : eval.spec.apps) {
        const core::OptimizationReport& nt =
            cache_.report(machine_, app, Policy::SoftwareNT);
        core_totals.add(nt);
        if (reason.empty()) reason = golden_.check(app, nt.plans);
      }
      if (!reason.empty()) fail(report, reason);
      ws += eval.weighted_speedup(Policy::SoftwareNT);
      traffic += eval.traffic_increase(Policy::SoftwareNT);
    }
    const double n = static_cast<double>(report.attempted);
    report.outcomes["ws_nt"] = ws / n;
    report.outcomes["traffic_nt_pct"] = 100.0 * traffic / n;
    sim_totals.emit(report.outcomes);
    // The seed decides how long each mix runs, so simulated references, not
    // mixes, are the unit of work that compares across seeds.
    report.work = report.outcomes["sim.refs"];
    core_totals.emit(report.outcomes);
    return report;
  }

  void probe(Tracer& tracer, std::map<std::string, double>& counters) override {
    walk_cursors(tracer, pointers(programs_), counters);
  }

 private:
  /// A copy of analysis::evaluate_mix (src/analysis/experiments.cc), one
  /// level down so a span can sit around the simulation: prepared programs
  /// per policy, then the shared-LLC simulation.
  analysis::MixEvaluation evaluate_mix(Tracer* tracer,
                                       const workloads::MixSpec& spec) {
    Span span(tracer, "analysis.evaluate_mix");
    analysis::MixEvaluation eval;
    eval.spec = spec;
    for (Policy policy : kMixPolicies) {
      std::vector<workloads::Program> programs;
      for (std::size_t core = 0; core < spec.apps.size(); ++core) {
        programs.push_back(cache_.prepare(
            machine_, spec.apps[core], workloads::InputSet::Reference, policy,
            workloads::core_address_offset(static_cast<int>(core))));
      }
      Span run(tracer, "sim.run_mix");
      eval.runs.emplace(policy,
                        sim::run_mix(machine_, pointers(programs),
                                     policy == Policy::Hardware));
    }
    return eval;
  }

  sim::MachineConfig machine_;
  std::vector<workloads::MixSpec> mixes_;
  GoldenPlans golden_;
  analysis::PlanCache cache_;
  std::vector<workloads::Program> programs_;
  std::vector<analysis::MixEvaluation> evals_;
  std::vector<double> part_s_;
};

// ---- serve ---------------------------------------------------------------

/// Open loop in virtual time: serve::run_serve_sim with 64 client cores
/// sending seeded Bernoulli arrivals over hot and cold phase families to one
/// AdvisoryService whose misses are solved on the analysis engine
/// (1 worker). Journaling stays off: its fsync waits made the pass time
/// track the host's disk rather than the program (see README.md).
class ServeWorkload : public Workload {
 public:
  // Virtual-time solve capacity: enough that the cold-start burst of misses
  // meets its deadlines, so no request is shed or degraded.
  static constexpr int kSolveSlots = 16;

  explicit ServeWorkload(std::uint64_t seed)
      : seed_(seed), machine_(sim::amd_phenom_ii()), executor_(kServeWorkers) {
    traffic_.cores = 64;
    traffic_.ticks = 4096;
    traffic_.request_rate = 0.02;
    traffic_.hot_fraction = 0.9;
    traffic_.hot_families = 4;
    traffic_.cold_families = 1024;
    traffic_.seed = seed;
    // run_serve_sim builds the same families; the solver and the probe use
    // this copy.
    families_ =
        serve::make_families(traffic_.hot_families, traffic_.cold_families);
    options_.solve_slots = kSolveSlots;
    const serve::AdvisoryService::Solver engine_solver =
        serve::make_engine_solver(families_, machine_, &executor_);
    solver_ = [this, engine_solver](const serve::PlanRequest& request,
                                    const engine::CancelToken* cancel) {
      Span span(tracer_, "serve.solve");
      return engine_solver(request, cancel);
    };
  }

  ServeWorkload(const ServeWorkload&) = delete;  // the solver holds `this`
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  /// Requests of the last completed pass (the same on every pass of a
  /// seed); 1 before any pass has completed.
  std::uint64_t ops_per_pass() const override {
    return std::max<std::uint64_t>(result_.stats.submitted, 1);
  }

  void run_pass(Tracer* tracer) override {
    tracer_ = tracer;
    Span span(tracer, "serve.run_serve_sim");
    result_ = serve::run_serve_sim(traffic_, options_, solver_, &executor_);
  }

  PassReport check_pass(Checker& checker) override {
    const serve::ServiceStats& stats = result_.stats;
    PassReport report;
    report.attempted = stats.submitted;
    if (result_.responses != stats.submitted) {
      fail(report, std::to_string(result_.responses) + " responses to " +
                       std::to_string(stats.submitted) + " requests");
    }
    // Every shed or degraded answer is a failed request.
    const std::uint64_t degraded = stats.last_known_good + stats.no_prefetch;
    if (degraded > 0) {
      report.failed += degraded;
      report.failures.push_back(std::to_string(degraded) +
                                " requests shed or degraded");
    }
    const std::string digest_reason = checker.check(
        "serve-seed/" + std::to_string(seed_),
        support::crc32_hex(static_cast<std::uint32_t>(result_.digest)), false);
    if (!result_.gates_ok() || !digest_reason.empty()) {
      report.failed = report.attempted;
      report.failures.push_back(digest_reason.empty()
                                    ? "serve robustness gates failed"
                                    : digest_reason);
    }

    report.work = static_cast<double>(result_.responses);
    const double submitted = static_cast<double>(stats.submitted);
    auto& out = report.outcomes;
    out["p50_ticks"] = result_.p50_admitted;
    out["p99_ticks"] = result_.p99_admitted;
    out["latency_samples"] = static_cast<double>(stats.fresh + stats.cache_hits);
    out["responses"] = static_cast<double>(result_.responses);
    out["degraded_pct"] = 100.0 * ratio(static_cast<double>(degraded), submitted);
    out["serve.solves"] = static_cast<double>(stats.solves_started);
    out["serve.cache_hits"] = static_cast<double>(stats.cache_hits);
    out["serve.hit_ratio"] =
        ratio(static_cast<double>(stats.cache_hits), submitted);
    out["serve.shed"] = static_cast<double>(
        stats.shed_queue_full + stats.shed_infeasible + stats.shed_quota +
        stats.shed_slow_consumer);
    out["serve.max_queue_depth"] = static_cast<double>(stats.max_queue_depth);
    return report;
  }

  void probe(Tracer& tracer, std::map<std::string, double>& counters) override {
    std::vector<const workloads::Program*> programs;
    for (const serve::Family& family : families_) {
      programs.push_back(&family.program);
    }
    walk_cursors(tracer, programs, counters);
    CoreTotals core_totals;
    walk_optimize_stages(tracer, programs, machine_, counters, &core_totals);
    core_totals.emit(counters);
  }

 private:
  std::uint64_t seed_;
  sim::MachineConfig machine_;
  engine::Executor executor_;
  serve::TrafficConfig traffic_;
  std::vector<serve::Family> families_;
  serve::ServiceOptions options_;
  serve::AdvisoryService::Solver solver_;
  Tracer* tracer_ = nullptr;  // the running pass's tracer, for the solver
  serve::ServeRunResult result_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& golden_dir) {
  if (name == "suite") return std::make_unique<SuiteWorkload>(golden_dir);
  if (name == "mix") return std::make_unique<MixWorkload>(seed, golden_dir);
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
