#include "core/pipeline.hh"

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "workloads/suite.hh"

namespace re::core {
namespace {

TEST(Pipeline, MeasuresCyclesPerMemop) {
  const auto machine = sim::amd_phenom_ii();
  const auto program = workloads::make_benchmark("libquantum");
  const double delta = measure_cycles_per_memop(program, machine);
  EXPECT_GT(delta, 1.0);
  EXPECT_LT(delta, 50.0);
  // The probe is the formula applied to the Baseline run.
  EXPECT_EQ(delta, cycles_per_memop(sim::run_single(machine, program,
                                                    /*hw_prefetch=*/false)));
  EXPECT_EQ(cycles_per_memop(sim::RunResult{}), 1.0);
}

TEST(Pipeline, LibquantumGetsNonTemporalStreamPrefetches) {
  const auto machine = sim::amd_phenom_ii();
  const auto program = workloads::make_benchmark("libquantum");
  const OptimizationReport report = optimize_program(program, machine);

  ASSERT_GE(report.plans.size(), 2u);
  bool pc1 = false, pc2 = false;
  for (const PrefetchPlan& plan : report.plans) {
    if (plan.pc == 1) {
      pc1 = true;
      EXPECT_TRUE(plan.non_temporal());
      EXPECT_GE(plan.distance_bytes, 64);
    }
    if (plan.pc == 2) pc2 = true;
  }
  EXPECT_TRUE(pc1);
  EXPECT_TRUE(pc2);
}

TEST(Pipeline, NtDisabledProducesPlainPrefetches) {
  const auto machine = sim::amd_phenom_ii();
  OptimizerOptions options;
  options.enable_non_temporal = false;
  const OptimizationReport report = optimize_program(
      workloads::make_benchmark("libquantum"), machine, options);
  for (const PrefetchPlan& plan : report.plans) {
    EXPECT_FALSE(plan.non_temporal());
  }
}

TEST(Pipeline, PointerChasesAreNeverPrefetched) {
  const auto machine = sim::amd_phenom_ii();
  for (const char* name : {"mcf", "omnetpp", "xalan"}) {
    const auto program = workloads::make_benchmark(name);
    const OptimizationReport report = optimize_program(program, machine);
    for (const PrefetchPlan& plan : report.plans) {
      const auto* inst = program.find(plan.pc);
      ASSERT_NE(inst, nullptr);
      EXPECT_FALSE(
          std::holds_alternative<workloads::PointerChasePattern>(
              inst->pattern))
          << name << " pc" << plan.pc;
    }
  }
}

TEST(Pipeline, OptimizedProgramIsFasterForStreamingBenchmarks) {
  const auto machine = sim::amd_phenom_ii();
  for (const char* name : {"libquantum", "lbm", "leslie3d", "milc"}) {
    const auto program = workloads::make_benchmark(name);
    const OptimizationReport report = optimize_program(program, machine);
    const auto base = sim::run_single(machine, program, false);
    const auto opt = sim::run_single(machine, report.optimized, false);
    EXPECT_LT(opt.apps[0].cycles, base.apps[0].cycles) << name;
    // Significant win, not noise: at least 20 %.
    EXPECT_GT(static_cast<double>(base.apps[0].cycles) /
                  static_cast<double>(opt.apps[0].cycles),
              1.2)
        << name;
  }
}

TEST(Pipeline, PrefetchingNeverCatastrophicallyHurts) {
  // Paper claim: the method "never hurts performance" (mix section); in
  // isolation allow a small alpha-overhead regression at most.
  const auto machine = sim::intel_sandybridge();
  for (const std::string& name : workloads::suite_names()) {
    const auto program = workloads::make_benchmark(name);
    const OptimizationReport report = optimize_program(program, machine);
    const auto base = sim::run_single(machine, program, false);
    const auto opt = sim::run_single(machine, report.optimized, false);
    EXPECT_LT(static_cast<double>(opt.apps[0].cycles),
              static_cast<double>(base.apps[0].cycles) * 1.03)
        << name;
  }
}

TEST(Pipeline, ReportIsInternallyConsistent) {
  const auto machine = sim::intel_sandybridge();
  const auto program = workloads::make_benchmark("soplex");
  const OptimizationReport report = optimize_program(program, machine);
  EXPECT_EQ(report.benchmark, "soplex");
  EXPECT_GT(report.profile.total_references, 0u);
  // Every plan corresponds to a delinquent load with a regular stride.
  for (const PrefetchPlan& plan : report.plans) {
    const bool delinquent =
        std::any_of(report.delinquent_loads.begin(),
                    report.delinquent_loads.end(),
                    [&](const DelinquentLoad& d) { return d.pc == plan.pc; });
    EXPECT_TRUE(delinquent) << "pc" << plan.pc;
    // And the optimized program carries it.
    const auto* inst = report.optimized.find(plan.pc);
    ASSERT_NE(inst, nullptr);
    EXPECT_TRUE(inst->prefetch.has_value());
    EXPECT_EQ(inst->prefetch->distance_bytes, plan.distance_bytes);
  }
}

TEST(Pipeline, StrideCentricInsertsSuperset) {
  // Stride-centric has no cost-benefit filter: it must plan prefetches for
  // at least every regular load MDDLI picked, typically more.
  const auto machine = sim::amd_phenom_ii();
  for (const char* name : {"gcc", "omnetpp", "soplex", "xalan"}) {
    const auto program = workloads::make_benchmark(name);
    const OptimizationReport mddli = optimize_program(program, machine);
    const OptimizationReport centric =
        stride_centric_optimize(program, machine);
    EXPECT_GT(centric.plans.size(), mddli.plans.size()) << name;
    for (const PrefetchPlan& plan : mddli.plans) {
      EXPECT_TRUE(std::any_of(
          centric.plans.begin(), centric.plans.end(),
          [&](const PrefetchPlan& c) { return c.pc == plan.pc; }))
          << name << " pc" << plan.pc;
    }
  }
}

TEST(Pipeline, StrideCentricNeverUsesNt) {
  const auto machine = sim::amd_phenom_ii();
  const OptimizationReport centric = stride_centric_optimize(
      workloads::make_benchmark("libquantum"), machine);
  for (const PrefetchPlan& plan : centric.plans) {
    EXPECT_FALSE(plan.non_temporal());
  }
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto machine = sim::amd_phenom_ii();
  const auto program = workloads::make_benchmark("cigar");
  const OptimizationReport a = optimize_program(program, machine);
  const OptimizationReport b = optimize_program(program, machine);
  ASSERT_EQ(a.plans.size(), b.plans.size());
  for (std::size_t i = 0; i < a.plans.size(); ++i) {
    EXPECT_EQ(a.plans[i].pc, b.plans[i].pc);
    EXPECT_EQ(a.plans[i].distance_bytes, b.plans[i].distance_bytes);
    EXPECT_EQ(a.plans[i].hint, b.plans[i].hint);
  }
}

TEST(Pipeline, ProfileCapLimitsWork) {
  const auto machine = sim::amd_phenom_ii();
  OptimizerOptions options;
  options.profile_max_refs = 10000;
  const OptimizationReport report = optimize_program(
      workloads::make_benchmark("milc"), machine, options);
  EXPECT_EQ(report.profile.total_references, 10000u);
}

}  // namespace
}  // namespace re::core
