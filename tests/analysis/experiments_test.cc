#include "analysis/experiments.hh"

#include <gtest/gtest.h>

#include <string>

#include "engine/pipeline.hh"
#include "verify/golden.hh"

namespace re::analysis {
namespace {

using verify::render_run;

TEST(PolicyName, AllPoliciesNamed) {
  EXPECT_STREQ(policy_name(Policy::Baseline), "Baseline");
  EXPECT_STREQ(policy_name(Policy::Hardware), "Hardware Pref.");
  EXPECT_STREQ(policy_name(Policy::Software), "Software Pref.");
  EXPECT_STREQ(policy_name(Policy::SoftwareNT), "Soft Pref.+NT");
  EXPECT_STREQ(policy_name(Policy::StrideCentric), "Stride-centric");
}

TEST(PlanCache, ReportsAreCachedPerKey) {
  PlanCache cache;
  const auto machine = sim::amd_phenom_ii();
  const auto& a = cache.report(machine, "libquantum", Policy::SoftwareNT);
  const auto& b = cache.report(machine, "libquantum", Policy::SoftwareNT);
  EXPECT_EQ(&a, &b);  // same object: computed once
  const auto& c = cache.report(machine, "libquantum", Policy::Software);
  EXPECT_NE(&a, &c);  // NT and non-NT variants are distinct
}

TEST(PlanCache, BaselinePolicyHasNoReport) {
  PlanCache cache;
  EXPECT_THROW(
      cache.report(sim::amd_phenom_ii(), "libquantum", Policy::Baseline),
      std::invalid_argument);
}

TEST(PlanCache, PrepareBaselineHasNoPrefetches) {
  PlanCache cache;
  const auto program =
      cache.prepare(sim::amd_phenom_ii(), "libquantum",
                    workloads::InputSet::Reference, Policy::Baseline);
  for (const auto& loop : program.loops) {
    for (const auto& inst : loop.body) {
      EXPECT_FALSE(inst.prefetch.has_value());
    }
  }
}

TEST(PlanCache, PreparedProgramCarriesPlansAcrossInputs) {
  PlanCache cache;
  const auto machine = sim::intel_sandybridge();
  const auto& report = cache.report(machine, "libquantum", Policy::SoftwareNT);
  ASSERT_FALSE(report.plans.empty());
  const auto alt = cache.prepare(machine, "libquantum",
                                 workloads::InputSet::Alternate,
                                 Policy::SoftwareNT);
  for (const auto& plan : report.plans) {
    const auto* inst = alt.find(plan.pc);
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(inst->prefetch.has_value());
    EXPECT_EQ(inst->prefetch->distance_bytes, plan.distance_bytes);
  }
}

TEST(PlanCache, PrepareAppliesBaseOffset) {
  PlanCache cache;
  const auto machine = sim::amd_phenom_ii();
  const auto base = cache.prepare(machine, "milc",
                                  workloads::InputSet::Reference,
                                  Policy::Baseline, 0);
  const auto moved = cache.prepare(machine, "milc",
                                   workloads::InputSet::Reference,
                                   Policy::Baseline, 1ULL << 40);
  Addr base_addr = 0, moved_addr = 0;
  std::visit([&](const auto& p) { base_addr = p.base; },
             base.loops[0].body[0].pattern);
  std::visit([&](const auto& p) { moved_addr = p.base; },
             moved.loops[0].body[0].pattern);
  EXPECT_EQ(moved_addr, base_addr + (1ULL << 40));
}

// -- the memo against the standalone pipeline ------------------------------
//
// A cached report is solved from the shared profile and the memoized
// Baseline run; the standalone entry points sample and simulate afresh.
// The standalone path is the oracle: the two must agree byte for byte.

TEST(PlanCacheOracle, ReportsMatchTheStandalonePipeline) {
  PlanCache cache;
  core::OptimizerOptions software;
  software.enable_non_temporal = false;
  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    for (const std::string& name : workloads::suite_names()) {
      const workloads::Program program =
          workloads::make_benchmark(name, workloads::InputSet::Reference);
      EXPECT_EQ(engine::serialize_report(
                    cache.report(machine, name, Policy::Software)),
                engine::serialize_report(
                    core::optimize_program(program, machine, software)))
          << machine.name << "/" << name << "/sw";
      EXPECT_EQ(engine::serialize_report(
                    cache.report(machine, name, Policy::SoftwareNT)),
                engine::serialize_report(
                    core::optimize_program(program, machine)))
          << machine.name << "/" << name << "/nt";
      EXPECT_EQ(engine::serialize_report(
                    cache.report(machine, name, Policy::StrideCentric)),
                engine::serialize_report(
                    core::stride_centric_optimize(program, machine)))
          << machine.name << "/" << name << "/sc";
    }
  }
}

TEST(PlanCacheOracle, AssumedDeltaStillWins) {
  core::OptimizerOptions options;
  options.assumed_cycles_per_memop = 2.5;
  PlanCache cache(options);
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const core::OptimizationReport& report =
      cache.report(machine, "libquantum", Policy::SoftwareNT);
  EXPECT_DOUBLE_EQ(report.cycles_per_memop, 2.5);
  EXPECT_NE(report.cycles_per_memop,
            core::cycles_per_memop(cache.baseline(machine, "libquantum")));
  EXPECT_EQ(engine::serialize_report(report),
            engine::serialize_report(
                core::optimize_program(program, machine, options)));
}

TEST(PlanCacheOracle, OneProfilePerBenchmarkServesBothMachines) {
  PlanCache cache;
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const core::Profile& shared = cache.profile("libquantum");
  const core::Profile fresh = core::profile_program(program, {});
  EXPECT_EQ(shared.total_references, fresh.total_references);
  EXPECT_EQ(shared.reuse_samples.size(), fresh.reuse_samples.size());
  EXPECT_EQ(shared.stride_samples.size(), fresh.stride_samples.size());
  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    EXPECT_EQ(engine::serialize_report(
                  cache.report(machine, "libquantum", Policy::SoftwareNT)),
              engine::serialize_report(
                  core::optimize_with_profile(program, shared, machine)))
        << machine.name;
    EXPECT_EQ(&cache.profile("libquantum"), &shared) << machine.name;
  }
}

TEST(EvaluateBenchmark, BaselineRunIsTheMemoizedReferenceRun) {
  PlanCache cache;
  for (const sim::MachineConfig& machine :
       {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
    const BenchmarkEvaluation eval =
        evaluate_benchmark(machine, "mcf", cache);
    const std::string fresh = render_run(sim::run_single(
        machine, workloads::make_benchmark("mcf"), /*hw_prefetch=*/false));
    EXPECT_EQ(render_run(eval.runs.at(Policy::Baseline)), fresh)
        << machine.name;
    EXPECT_EQ(render_run(cache.baseline(machine, "mcf")), fresh)
        << machine.name;
  }
}

TEST(EvaluateBenchmark, AlternateInputSimulatesTheAlternateProgram) {
  PlanCache cache;
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const BenchmarkEvaluation eval = evaluate_benchmark(
      machine, "mcf", cache, workloads::InputSet::Alternate);
  const std::string alternate = render_run(sim::run_single(
      machine, workloads::make_benchmark("mcf", workloads::InputSet::Alternate),
      /*hw_prefetch=*/false));
  EXPECT_EQ(render_run(eval.runs.at(Policy::Baseline)), alternate);
  EXPECT_NE(render_run(cache.baseline(machine, "mcf")), alternate);
}

TEST(EvaluateBenchmark, ProducesAllPolicies) {
  PlanCache cache;
  const auto eval =
      evaluate_benchmark(sim::amd_phenom_ii(), "libquantum", cache);
  EXPECT_EQ(eval.runs.size(), 5u);
  EXPECT_DOUBLE_EQ(eval.speedup(Policy::Baseline), 1.0);
  EXPECT_GT(eval.speedup(Policy::SoftwareNT), 1.2);
  EXPECT_GT(eval.bandwidth_gbps(Policy::Baseline), 0.0);
}

TEST(EvaluateMix, FourAppsFourResults) {
  PlanCache cache;
  const workloads::MixSpec spec{
      {"libquantum", "milc", "soplex", "GemsFDTD"}};
  const auto eval = evaluate_mix(sim::amd_phenom_ii(), spec, cache);
  for (const auto policy :
       {Policy::Baseline, Policy::Hardware, Policy::SoftwareNT}) {
    EXPECT_EQ(eval.runs.at(policy).apps.size(), 4u);
  }
  EXPECT_DOUBLE_EQ(eval.weighted_speedup(Policy::Baseline), 1.0);
  EXPECT_DOUBLE_EQ(eval.qos(Policy::Baseline), 0.0);
  EXPECT_GT(eval.weighted_speedup(Policy::SoftwareNT), 1.0);
}

TEST(EvaluateMix, FairSpeedupNeverExceedsWeighted) {
  PlanCache cache;
  const workloads::MixSpec spec{{"libquantum", "mcf", "gcc", "cigar"}};
  const auto eval = evaluate_mix(sim::intel_sandybridge(), spec, cache);
  for (const auto policy : {Policy::Hardware, Policy::SoftwareNT}) {
    EXPECT_LE(eval.fair_speedup(policy),
              eval.weighted_speedup(policy) + 1e-9);
  }
}

}  // namespace
}  // namespace re::analysis
