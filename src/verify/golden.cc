#include "verify/golden.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "analysis/corun.hh"
#include "analysis/experiments.hh"
#include "core/pipeline.hh"
#include "engine/executor.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/mix.hh"
#include "workloads/suite.hh"

namespace re::verify {

namespace {

/// Seed of the deterministic streaming aggressors in the co-run snapshot.
constexpr std::uint64_t kCoRunGoldenSeed = 0x5eed;

void append_plan_body(std::ostringstream& out,
                      const std::vector<GoldenEntry>& entries) {
  for (const GoldenEntry& entry : entries) {
    out << "benchmark " << entry.benchmark << "\n";
    if (entry.plans.empty()) {
      out << "  none\n";
      continue;
    }
    for (const core::PrefetchPlan& plan : entry.plans) {
      out << "  pc" << plan.pc << " " << core::hint_mnemonic(plan.hint) << " "
          << (plan.distance_bytes >= 0 ? "+" : "") << plan.distance_bytes
          << "\n";
    }
  }
}

std::string machine_slug(const std::string& machine_name) {
  std::string slug;
  for (char c : machine_name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  return slug;
}

std::vector<std::string> significant_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

std::vector<GoldenEntry> compute_suite_plans(
    const sim::MachineConfig& machine, const engine::Executor* executor) {
  const std::vector<std::string> names = workloads::suite_names();
  const auto compute = [&](std::size_t i) {
    const workloads::Program program =
        workloads::make_benchmark(names[i], workloads::InputSet::Reference);
    core::OptimizationReport report = core::optimize_program(program, machine);
    return GoldenEntry{names[i], std::move(report.plans)};
  };
  if (executor != nullptr) return executor->map(names.size(), compute);
  std::vector<GoldenEntry> entries;
  entries.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    entries.push_back(compute(i));
  }
  return entries;
}

std::string render_golden(const std::vector<GoldenEntry>& entries,
                          const std::string& machine_name) {
  std::ostringstream out;
  out << "# golden prefetch plans | machine=" << machine_name
      << " | format=1\n";
  out << "# Regenerate after a reviewed pipeline change:\n";
  out << "#   tools/check.sh verify --bless\n";
  out << "#   (or: repf verify --bless --golden tests/golden"
         " [--machine intel])\n";
  append_plan_body(out, entries);
  return out.str();
}

std::string golden_filename(const std::string& machine_name) {
  return "plans_" + machine_slug(machine_name) + ".golden";
}

std::vector<GoldenEntry> compute_corun_suite_plans(
    const sim::MachineConfig& machine, const engine::Executor* executor) {
  const std::vector<std::string> names = workloads::suite_names();
  const auto compute = [&](std::size_t i) {
    // Victim on core 0, three deterministic streaming aggressors on the
    // remaining cores, each in a disjoint address space.
    std::vector<workloads::Program> programs;
    programs.reserve(sim::kNumCores);
    programs.push_back(
        workloads::make_benchmark(names[i], workloads::InputSet::Reference));
    for (int core = 1; core < sim::kNumCores; ++core) {
      FuzzedTrace aggressor =
          make_trace(TraceFamily::kStrided, kCoRunGoldenSeed,
                     static_cast<std::uint64_t>(core));
      workloads::rebase_program(aggressor.program,
                                workloads::core_address_offset(core));
      programs.push_back(std::move(aggressor.program));
    }
    analysis::CoRunArtifacts artifacts;
    artifacts.programs = &programs;
    artifacts.machine = &machine;
    analysis::run_corun(artifacts);
    return GoldenEntry{names[i], std::move(artifacts.reports[0].plans)};
  };
  if (executor != nullptr) return executor->map(names.size(), compute);
  std::vector<GoldenEntry> entries;
  entries.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    entries.push_back(compute(i));
  }
  return entries;
}

std::string render_corun_golden(const std::vector<GoldenEntry>& entries,
                                const std::string& machine_name) {
  std::ostringstream out;
  out << "# golden co-run victim plans | machine=" << machine_name
      << " | format=1\n";
  out << "# Core 0 victim vs 3 streaming aggressors; plans solved with the\n";
  out << "# composed effective-LLC-share knob. Regenerate after a reviewed\n";
  out << "# composition change:\n";
  out << "#   repf corun --bless --golden tests/golden [--machine intel]\n";
  append_plan_body(out, entries);
  return out.str();
}

std::string corun_golden_filename(const std::string& machine_name) {
  return "corun_" + golden_filename(machine_name);
}

std::string render_run(const sim::RunResult& run) {
  std::ostringstream out;
  out << "elapsed=" << run.elapsed_cycles << " freq=" << run.freq_ghz
      << " dram=" << run.dram.demand_lines << '/'
      << run.dram.sw_prefetch_lines << '/' << run.dram.hw_prefetch_lines
      << '/' << run.dram.writeback_lines << '\n';
  for (const sim::AppResult& app : run.apps) {
    const sim::CoreMemStats& m = app.mem;
    out << app.name << " cycles=" << app.cycles << " refs=" << app.references
        << " loads=" << m.loads << " stores=" << m.stores
        << " hits=" << m.l1_hits << '/' << m.l2_hits << '/' << m.llc_hits
        << " dram_loads=" << m.dram_loads << " sw=" << m.sw_prefetches_issued
        << '/' << m.sw_prefetches_dropped << '/' << m.sw_prefetch_dram_lines
        << " hw_lines=" << m.hw_prefetch_dram_lines
        << " late=" << m.late_prefetch_hits
        << " useless=" << m.useless_sw_evictions << '/'
        << m.useless_hw_evictions << " stall=" << m.memory_stall_cycles
        << '\n';
  }
  return out.str();
}

std::string render_runs_golden(const sim::MachineConfig& machine,
                               const engine::Executor* executor) {
  analysis::PlanCache cache;
  std::ostringstream out;
  out << "# golden simulated runs | machine=" << machine.name
      << " | format=1\n";
  out << "# Regenerate after a reviewed simulator change:\n";
  out << "#   tools/check.sh verify --bless\n";
  out << "#   (or: repf verify --bless --golden tests/golden"
         " [--machine intel])\n";
  for (const analysis::BenchmarkEvaluation& eval : analysis::evaluate_suite(
           machine, workloads::suite_names(), cache, executor)) {
    for (const auto& [policy, run] : eval.runs) {
      out << "run " << eval.name << " | " << analysis::policy_name(policy)
          << "\n"
          << render_run(run);
    }
  }
  const workloads::MixSpec fig8_mix{{"cigar", "gcc", "lbm", "libquantum"}};
  for (const auto& [policy, run] :
       analysis::evaluate_mix(machine, fig8_mix, cache).runs) {
    out << "mix | " << analysis::policy_name(policy) << "\n"
        << render_run(run);
  }
  return out.str();
}

std::string runs_golden_filename(const std::string& machine_name) {
  return "runs_" + machine_slug(machine_name) + ".golden";
}

std::string diff_golden(const std::string& expected,
                        const std::string& actual) {
  const std::vector<std::string> want = significant_lines(expected);
  const std::vector<std::string> got = significant_lines(actual);
  std::ostringstream diff;
  const std::size_t n = std::max(want.size(), got.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w && g && *w == *g) continue;
    if (w) diff << "-" << *w << "\n";
    if (g) diff << "+" << *g << "\n";
  }
  return diff.str();
}

}  // namespace re::verify
