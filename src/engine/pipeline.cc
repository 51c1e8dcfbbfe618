#include "engine/pipeline.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "engine/delta.hh"
#include "workloads/dsl.hh"

namespace re::engine {

namespace {

/// The validator mirrors the stride-analysis gates (PR 1): a clean profile
/// yields byte-identical plans; degraded evidence only ever removes
/// prefetches. Built identically wherever a stage needs it.
core::ProfileValidator make_validator(const core::OptimizerOptions& options) {
  core::ValidatorOptions vopts;
  vopts.min_stride_samples = options.stride.min_samples;
  vopts.dominance_threshold = options.stride.dominance_threshold;
  return core::ProfileValidator(vopts);
}

/// Index stride samples by PC once per stride stage.
std::unordered_map<Pc, std::vector<core::StrideSample>> strides_by_pc(
    const core::Profile& profile) {
  std::unordered_map<Pc, std::vector<core::StrideSample>> by_pc;
  for (const core::StrideSample& s : profile.stride_samples) {
    by_pc[s.pc].push_back(s);
  }
  return by_pc;
}

// ---- stages ---------------------------------------------------------------

Stage<OptimizeArtifacts> sample_stage() {
  return {
      "sample",
      "program, options.sampler",
      "report.profile",
      [](const OptimizeArtifacts& a) { return !a.profile_bound; },
      [](OptimizeArtifacts& a, const EngineContext&) {
        a.report.profile = core::profile_program(
            *a.program, a.options.sampler, a.options.profile_max_refs);
      },
  };
}

Stage<OptimizeArtifacts> validate_stage() {
  return {
      "validate",
      "report.profile",
      "report.profile (sanitized), profile_usable, report.degradation",
      nullptr,
      [](OptimizeArtifacts& a, const EngineContext&) {
        const core::ProfileValidator validator = make_validator(a.options);
        Expected<core::Profile> sanitized =
            validator.sanitize(a.report.profile, &a.report.degradation);
        if (!sanitized) {
          // Unusable profile: degrade to "do nothing" — never prefetch on
          // evidence we cannot trust. The unsanitized profile stays in the
          // report for post-mortems.
          a.profile_usable = false;
          return;
        }
        a.report.profile = std::move(*sanitized);
      },
  };
}

Stage<OptimizeArtifacts> delta_stage() {
  return {
      "delta",
      "options.{assumed,measured}_cycles_per_memop | baseline | baseline sim",
      "report.cycles_per_memop, delta_source",
      nullptr,
      [](OptimizeArtifacts& a, const EngineContext&) {
        const DeltaEstimate delta = resolve_delta(
            a.options.assumed_cycles_per_memop,
            a.options.measured_cycles_per_memop, [&a] {
              return a.baseline != nullptr
                         ? core::cycles_per_memop(*a.baseline)
                         : core::measure_cycles_per_memop(*a.program,
                                                          *a.machine);
            });
        a.report.cycles_per_memop = delta.cycles_per_memop;
        a.delta_source = delta.source;
      },
  };
}

Stage<OptimizeArtifacts> statstack_stage() {
  return {
      "statstack",
      "report.profile",
      "model (per-PC MRCs), reuse_graph",
      [](const OptimizeArtifacts& a) { return a.profile_usable; },
      [](OptimizeArtifacts& a, const EngineContext&) {
        a.model = std::make_unique<core::StatStack>(a.report.profile);
        a.reuse_graph = std::make_unique<core::ReuseGraph>(a.report.profile);
      },
  };
}

Stage<OptimizeArtifacts> mddli_stage() {
  return {
      "mddli",
      "model, report.profile, machine, options.mddli",
      "report.delinquent_loads, loads",
      [](const OptimizeArtifacts& a) { return a.profile_usable; },
      [](OptimizeArtifacts& a, const EngineContext&) {
        a.report.delinquent_loads = core::identify_delinquent_loads(
            *a.model, a.report.profile, *a.machine, a.options.mddli);
        a.loads.assign(a.report.delinquent_loads.size(),
                       OptimizeArtifacts::LoadState{});
      },
  };
}

Stage<OptimizeArtifacts> stride_stage() {
  return {
      "stride",
      "report.delinquent_loads, report.{profile,cycles_per_memop}",
      "report.stride_infos, loads.{selected,distance_bytes}, "
      "report.degradation",
      [](const OptimizeArtifacts& a) { return a.profile_usable; },
      [](OptimizeArtifacts& a, const EngineContext&) {
        const core::ProfileValidator validator = make_validator(a.options);
        const auto by_pc = strides_by_pc(a.report.profile);
        core::DegradationLog& log = a.report.degradation;

        for (std::size_t i = 0; i < a.report.delinquent_loads.size(); ++i) {
          const core::DelinquentLoad& load = a.report.delinquent_loads[i];

          const core::LoadVerdict numerics =
              validator.classify_model_numerics(
                  load.l1_miss_ratio, load.l2_miss_ratio, load.llc_miss_ratio,
                  load.avg_miss_latency, a.report.cycles_per_memop);
          if (numerics.confidence != core::LoadConfidence::kOk) {
            log.record(load.pc, numerics.reason, numerics.detail);
            continue;
          }

          auto it = by_pc.find(load.pc);
          if (it == by_pc.end()) {
            log.record(load.pc, core::DegradationReason::kNoStrideSamples);
            continue;
          }
          a.report.stride_infos.push_back(
              core::analyze_strides(load.pc, it->second, a.options.stride));
          const core::StrideInfo& info = a.report.stride_infos.back();
          const core::LoadVerdict stride_verdict =
              validator.classify_stride_evidence(info, it->second.size());
          if (stride_verdict.confidence != core::LoadConfidence::kOk) {
            log.record(load.pc, stride_verdict.reason, stride_verdict.detail);
            continue;
          }

          core::PrefetchDistanceParams params;
          params.latency = load.avg_miss_latency;
          params.cycles_per_memop = a.report.cycles_per_memop;
          params.loop_references = a.report.profile.executions_of(load.pc);
          const Expected<std::int64_t> distance =
              core::prefetch_distance_checked(info, params);
          if (!distance) {
            log.record(load.pc, core::DegradationReason::kDistanceUnavailable,
                       distance.status().to_string());
            continue;
          }
          a.loads[i].selected = true;
          a.loads[i].distance_bytes = *distance;
        }
      },
  };
}

Stage<OptimizeArtifacts> bypass_stage() {
  return {
      "bypass",
      "loads.selected, reuse_graph, model, options.{bypass,enable_nt}",
      "loads.hint",
      [](const OptimizeArtifacts& a) { return a.profile_usable; },
      [](OptimizeArtifacts& a, const EngineContext&) {
        for (std::size_t i = 0; i < a.loads.size(); ++i) {
          if (!a.loads[i].selected) continue;
          const Pc pc = a.report.delinquent_loads[i].pc;
          a.loads[i].hint =
              a.options.enable_non_temporal &&
                      core::should_bypass(pc, *a.reuse_graph, *a.model,
                                          *a.machine, a.options.bypass)
                  ? workloads::PrefetchHint::NTA
                  : workloads::PrefetchHint::T0;
        }
      },
  };
}

Stage<OptimizeArtifacts> insert_stage() {
  return {
      "insert",
      "loads, program",
      "report.plans, report.optimized",
      nullptr,
      [](OptimizeArtifacts& a, const EngineContext&) {
        if (!a.profile_usable) {
          // Degraded pass-through: the input program, untouched.
          a.report.optimized = *a.program;
          return;
        }
        for (std::size_t i = 0; i < a.loads.size(); ++i) {
          if (!a.loads[i].selected) continue;
          core::PrefetchPlan plan;
          plan.pc = a.report.delinquent_loads[i].pc;
          plan.distance_bytes = a.loads[i].distance_bytes;
          plan.hint = a.loads[i].hint;
          a.report.plans.push_back(plan);
        }
        a.report.optimized =
            core::insert_prefetches(*a.program, a.report.plans);
      },
  };
}

/// Stride-centric "analysis": every regular-strided load gets a prefetch
/// with a constant assumed memory latency, no cost-benefit, no loop cap.
Stage<OptimizeArtifacts> stride_all_stage() {
  return {
      "stride-all",
      "report.profile, machine.dram_latency",
      "report.stride_infos, report.plans",
      nullptr,
      [](OptimizeArtifacts& a, const EngineContext&) {
        a.report.stride_infos =
            core::analyze_all_strides(a.report.profile, a.options.stride);
        for (const core::StrideInfo& info : a.report.stride_infos) {
          if (!info.regular) continue;
          core::PrefetchDistanceParams params;
          params.latency = static_cast<double>(a.machine->dram_latency);
          params.cycles_per_memop = a.report.cycles_per_memop;
          params.loop_references = ~std::uint64_t{0};  // no cap
          const auto distance = core::prefetch_distance_bytes(info, params);
          if (!distance) continue;

          core::PrefetchPlan plan;
          plan.pc = info.pc;
          plan.distance_bytes = *distance;
          plan.hint = workloads::PrefetchHint::T0;
          a.report.plans.push_back(plan);
        }
      },
  };
}

Stage<OptimizeArtifacts> stride_centric_insert_stage() {
  return {
      "insert",
      "report.plans, program",
      "report.optimized",
      nullptr,
      [](OptimizeArtifacts& a, const EngineContext&) {
        a.report.optimized =
            core::insert_prefetches(*a.program, a.report.plans);
      },
  };
}

}  // namespace

const StageGraph<OptimizeArtifacts>& optimize_graph() {
  static const StageGraph<OptimizeArtifacts> graph = [] {
    StageGraph<OptimizeArtifacts> g;
    g.add(sample_stage())
        .add(validate_stage())
        .add(delta_stage())
        .add(statstack_stage())
        .add(mddli_stage())
        .add(stride_stage())
        .add(bypass_stage())
        .add(insert_stage());
    return g;
  }();
  return graph;
}

const StageGraph<OptimizeArtifacts>& stride_centric_graph() {
  static const StageGraph<OptimizeArtifacts> graph = [] {
    StageGraph<OptimizeArtifacts> g;
    g.add(sample_stage())
        .add(delta_stage())
        .add(stride_all_stage())
        .add(stride_centric_insert_stage());
    return g;
  }();
  return graph;
}

const StageGraph<OptimizeArtifacts>& estimator_graph() {
  static const StageGraph<OptimizeArtifacts> graph = [] {
    StageGraph<OptimizeArtifacts> g;
    g.add(statstack_stage()).add(mddli_stage());
    return g;
  }();
  return graph;
}

core::OptimizationReport run_optimize(const workloads::Program& program,
                                      const sim::MachineConfig& machine,
                                      const core::OptimizerOptions& options,
                                      const EngineContext& ctx) {
  OptimizeArtifacts a;
  a.program = &program;
  a.machine = &machine;
  a.options = options;
  a.report.benchmark = program.name;
  optimize_graph().run(a, ctx);
  return std::move(a.report);
}

core::OptimizationReport run_optimize_with_profile(
    const workloads::Program& program, core::Profile profile,
    const sim::MachineConfig& machine, const core::OptimizerOptions& options,
    const EngineContext& ctx) {
  OptimizeArtifacts a;
  a.program = &program;
  a.machine = &machine;
  a.options = options;
  a.profile_bound = true;
  a.report.profile = std::move(profile);
  a.report.benchmark = program.name;
  optimize_graph().run(a, ctx);
  return std::move(a.report);
}

core::OptimizationReport run_stride_centric(
    const workloads::Program& program, const sim::MachineConfig& machine,
    const core::OptimizerOptions& options, const EngineContext& ctx) {
  OptimizeArtifacts a;
  a.program = &program;
  a.machine = &machine;
  a.options = options;
  a.report.benchmark = program.name;
  stride_centric_graph().run(a, ctx);
  return std::move(a.report);
}

std::string serialize_report(const core::OptimizationReport& report) {
  std::string out;
  char buf[256];
  const auto append = [&out, &buf](const char* format, auto... args) {
    std::snprintf(buf, sizeof buf, format, args...);
    out += buf;
  };

  append("report %s\n", report.benchmark.c_str());
  append("delta %.17g\n", report.cycles_per_memop);
  append("profile refs=%" PRIu64 " reuse=%zu dangling=%" PRIu64
         " strides=%zu period=%" PRIu64 "\n",
         report.profile.total_references, report.profile.reuse_samples.size(),
         report.profile.dangling_reuse_samples,
         report.profile.stride_samples.size(), report.profile.sample_period);
  for (const core::DelinquentLoad& d : report.delinquent_loads) {
    append("delinquent pc%u l1=%.17g l2=%.17g llc=%.17g lat=%.17g "
           "misses=%.17g\n",
           d.pc, d.l1_miss_ratio, d.l2_miss_ratio, d.llc_miss_ratio,
           d.avg_miss_latency, d.estimated_l1_misses);
  }
  for (const core::StrideInfo& s : report.stride_infos) {
    append("stride pc%u regular=%d stride=%" PRId64 " dom=%.17g rec=%.17g\n",
           s.pc, s.regular ? 1 : 0, s.stride, s.dominance,
           s.mean_recurrence);
  }
  for (const core::PrefetchPlan& p : report.plans) {
    append("plan pc%u %s %+" PRId64 "\n", p.pc, core::hint_mnemonic(p.hint),
           p.distance_bytes);
  }
  out += "degradation:\n";
  out += report.degradation.to_string();
  out += "optimized:\n";
  out += workloads::print_program(report.optimized);
  return out;
}

}  // namespace re::engine

// ---- thin core:: wrappers -------------------------------------------------
//
// The historical entry points keep their exact signatures and semantics;
// they are now one-line stage-graph configurations (DESIGN.md §11 maps each
// old entry point to its graph).

namespace re::core {

OptimizationReport optimize_program(const workloads::Program& program,
                                    const sim::MachineConfig& machine,
                                    const OptimizerOptions& options) {
  return engine::run_optimize(program, machine, options);
}

OptimizationReport optimize_with_profile(const workloads::Program& program,
                                         Profile profile,
                                         const sim::MachineConfig& machine,
                                         const OptimizerOptions& options) {
  return engine::run_optimize_with_profile(program, std::move(profile),
                                           machine, options);
}

OptimizationReport stride_centric_optimize(const workloads::Program& program,
                                           const sim::MachineConfig& machine,
                                           const OptimizerOptions& options) {
  return engine::run_stride_centric(program, machine, options);
}

}  // namespace re::core
