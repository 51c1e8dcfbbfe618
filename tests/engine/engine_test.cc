// Analysis-engine tests: the determinism property (any stage graph yields
// byte-identical reports at any worker count), Δ precedence, the knob
// builder, artifact-store reuse, and thread-safety stress for the shared
// plan cache and concurrent windowed solves (run under RE_SANITIZE=thread
// by the tsan lane in tools/check.sh).
#include "engine/pipeline.hh"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.hh"
#include "core/pipeline.hh"
#include "engine/delta.hh"
#include "engine/executor.hh"
#include "engine/options.hh"
#include "engine/store.hh"
#include "sim/system.hh"
#include "testutil.hh"
#include "workloads/suite.hh"

namespace re::engine {
namespace {

// -- determinism property -------------------------------------------------

/// Every graph entry point, serialized at `jobs` workers.
std::string all_graphs_fingerprint(const workloads::Program& program,
                                   const sim::MachineConfig& machine,
                                   int jobs) {
  const Executor executor(jobs);
  ArtifactStore store;
  const EngineContext ctx{&executor, &store};

  std::string out;
  out += serialize_report(run_optimize(program, machine, {}, ctx));
  out += serialize_report(run_stride_centric(program, machine, {}, ctx));
  const core::Profile profile =
      core::profile_program(program, core::SamplerConfig{});
  out += serialize_report(
      run_optimize_with_profile(program, profile, machine, {}, ctx));
  return out;
}

TEST(EngineDeterminism, ByteIdenticalReportsAtAnyWorkerCount) {
  for (const std::string& name : workloads::suite_names()) {
    const workloads::Program program = workloads::make_benchmark(name);
    for (const sim::MachineConfig& machine :
         {sim::amd_phenom_ii(), sim::intel_sandybridge()}) {
      const std::string serial = all_graphs_fingerprint(program, machine, 1);
      ASSERT_FALSE(serial.empty());
      for (const int jobs : {2, 7, 16}) {
        EXPECT_EQ(all_graphs_fingerprint(program, machine, jobs), serial)
            << name << " on " << machine.name << " at jobs " << jobs;
      }
    }
  }
}

TEST(EngineDeterminism, ContextlessRunMatchesSerialExecutor) {
  // The default EngineContext (no executor, no store) is the same code path
  // as a one-worker executor with a fresh store.
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const std::string contextless =
      serialize_report(run_optimize(program, machine, {}));
  EXPECT_EQ(contextless,
            serialize_report(run_optimize(program, machine, {},
                                          EngineContext{nullptr, nullptr})));
  const Executor executor(1);
  ArtifactStore store;
  EXPECT_EQ(contextless,
            serialize_report(run_optimize(program, machine, {},
                                          EngineContext{&executor, &store})));
}

TEST(EngineDeterminism, ArtifactStoreReuseAcrossRunsIsInvisible) {
  // A store warmed by other programs (stale interned PCs, used buffers) must
  // never change results — only allocation behavior.
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const Executor executor(2);
  ArtifactStore warm;
  const EngineContext ctx{&executor, &warm};
  std::vector<std::string> first_pass;
  for (const std::string& name : workloads::suite_names()) {
    first_pass.push_back(serialize_report(
        run_optimize(workloads::make_benchmark(name), machine, {}, ctx)));
  }
  // Second pass through the now-warm store, in reverse order.
  for (std::size_t i = workloads::suite_names().size(); i-- > 0;) {
    const std::string& name = workloads::suite_names()[i];
    EXPECT_EQ(serialize_report(run_optimize(workloads::make_benchmark(name),
                                            machine, {}, ctx)),
              first_pass[i])
        << name;
  }
}

// -- stage graph self-description -----------------------------------------

TEST(StageGraph, DescribeNamesEveryPipelineStage) {
  const std::string description = optimize_graph().describe();
  for (const char* stage : {"sample", "validate", "delta", "statstack",
                            "mddli", "stride", "bypass", "insert"}) {
    EXPECT_NE(description.find(stage), std::string::npos)
        << "missing stage: " << stage << "\n"
        << description;
  }
  EXPECT_EQ(optimize_graph().stages().size(), 8u);
  EXPECT_FALSE(stride_centric_graph().describe().empty());
  EXPECT_FALSE(estimator_graph().describe().empty());
}

// -- Δ resolution ----------------------------------------------------------

TEST(Delta, PrecedenceAssumedOverMeasuredOverBaselineSim) {
  int baseline_calls = 0;
  const auto baseline = [&] {
    ++baseline_calls;
    return 7.0;
  };

  const DeltaEstimate assumed = resolve_delta(3.0, 5.0, baseline);
  EXPECT_EQ(assumed.source, DeltaSource::kAssumed);
  EXPECT_DOUBLE_EQ(assumed.cycles_per_memop, 3.0);

  const DeltaEstimate measured = resolve_delta(0.0, 5.0, baseline);
  EXPECT_EQ(measured.source, DeltaSource::kMeasured);
  EXPECT_DOUBLE_EQ(measured.cycles_per_memop, 5.0);

  // The expensive baseline simulation is invoked lazily: only now.
  EXPECT_EQ(baseline_calls, 0);
  const DeltaEstimate sim = resolve_delta(0.0, 0.0, baseline);
  EXPECT_EQ(sim.source, DeltaSource::kBaselineSim);
  EXPECT_DOUBLE_EQ(sim.cycles_per_memop, 7.0);
  EXPECT_EQ(baseline_calls, 1);
}

TEST(Delta, BoundBaselineRunReplacesTheBaselineSim) {
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  // A doctored run: Δ = 3 exactly, which no simulation of this program gives.
  sim::RunResult baseline = sim::run_single(machine, program, false);
  baseline.apps[0].cycles = 3 * baseline.apps[0].references;

  const auto solve = [&](double measured) {
    OptimizeArtifacts a;
    a.program = &program;
    a.machine = &machine;
    a.options.measured_cycles_per_memop = measured;
    a.baseline = &baseline;
    a.report.benchmark = program.name;
    run_graph(optimize_graph(), a, {});
    return a;
  };
  const OptimizeArtifacts bound = solve(0.0);
  EXPECT_EQ(bound.delta_source, DeltaSource::kBaselineSim);
  EXPECT_DOUBLE_EQ(bound.report.cycles_per_memop, 3.0);
  // An online measurement still outranks the bound run.
  const OptimizeArtifacts measured = solve(5.0);
  EXPECT_EQ(measured.delta_source, DeltaSource::kMeasured);
  EXPECT_DOUBLE_EQ(measured.report.cycles_per_memop, 5.0);
}

TEST(Delta, EwmaIgnoresEmptyWindowsAndTracksChanges) {
  DeltaEwma ewma;
  EXPECT_DOUBLE_EQ(ewma.value(), 0.0);
  ewma.observe(0.0);   // empty window measures nothing
  ewma.observe(-1.0);  // nonsense measures nothing
  EXPECT_DOUBLE_EQ(ewma.value(), 0.0);
  ewma.observe(4.0);  // first observation seeds the estimate
  EXPECT_DOUBLE_EQ(ewma.value(), 4.0);
  ewma.observe(8.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 0.7 * 4.0 + 0.3 * 8.0);
}

// -- knob plumbing ---------------------------------------------------------

TEST(Knobs, DefaultsMatchTheStructsTheyBuild) {
  const AnalysisKnobs knobs;
  const core::SamplerConfig sampler = make_sampler_config(knobs);
  const core::SamplerConfig sampler_defaults{};
  EXPECT_EQ(sampler.sample_period, sampler_defaults.sample_period);
  EXPECT_EQ(sampler.seed, sampler_defaults.seed);

  const core::OptimizerOptions options = make_optimizer_options(knobs);
  const core::OptimizerOptions defaults;
  EXPECT_EQ(options.enable_non_temporal, defaults.enable_non_temporal);
  EXPECT_EQ(options.profile_max_refs, defaults.profile_max_refs);
  EXPECT_DOUBLE_EQ(options.assumed_cycles_per_memop,
                   defaults.assumed_cycles_per_memop);
  EXPECT_DOUBLE_EQ(options.measured_cycles_per_memop,
                   defaults.measured_cycles_per_memop);
}

TEST(Knobs, BuilderCarriesEveryKnob) {
  AnalysisKnobs knobs;
  knobs.sample_period = 123;
  knobs.sample_seed = 77;
  knobs.profile_max_refs = 5000;
  knobs.enable_non_temporal = false;
  knobs.assumed_cycles_per_memop = 2.5;
  knobs.measured_cycles_per_memop = 3.5;

  const core::SamplerConfig sampler = make_sampler_config(knobs);
  EXPECT_EQ(sampler.sample_period, 123u);
  EXPECT_EQ(sampler.seed, 77u);

  const core::OptimizerOptions options = make_optimizer_options(knobs);
  EXPECT_EQ(options.profile_max_refs, 5000u);
  EXPECT_FALSE(options.enable_non_temporal);
  EXPECT_DOUBLE_EQ(options.assumed_cycles_per_memop, 2.5);
  EXPECT_DOUBLE_EQ(options.measured_cycles_per_memop, 3.5);
}

TEST(Knobs, EffectiveLlcFansIntoMddliAndBypass) {
  AnalysisKnobs knobs;
  knobs.llc_effective_bytes = 256 << 10;
  const core::OptimizerOptions options = make_optimizer_options(knobs);
  EXPECT_EQ(options.mddli.llc_effective_bytes, 256u << 10);
  EXPECT_EQ(options.bypass.llc_effective_bytes, 256u << 10);

  // Zero (the default) preserves the single-core assumption: both passes
  // fall back to the machine's full LLC.
  const core::OptimizerOptions defaults = make_optimizer_options({});
  EXPECT_EQ(defaults.mddli.llc_effective_bytes, 0u);
  EXPECT_EQ(defaults.bypass.llc_effective_bytes, 0u);
}

TEST(Knobs, DescribeListsEveryFieldOnce) {
  const std::string audit = describe_knobs(AnalysisKnobs{});
  for (const char* field :
       {"sample_period", "sample_seed", "profile_max_refs",
        "enable_non_temporal", "assumed_cycles_per_memop",
        "measured_cycles_per_memop", "llc_effective_bytes", "mddli.",
        "stride.", "bypass."}) {
    EXPECT_NE(audit.find(field), std::string::npos)
        << "missing knob: " << field << "\n"
        << audit;
  }
}

// -- artifact store --------------------------------------------------------

TEST(ArtifactStore, InternerIsStableAndClearKeepsIds) {
  ArtifactStore store;
  const std::uint32_t a = store.pc_table().intern(100);
  const std::uint32_t b = store.pc_table().intern(200);
  EXPECT_NE(a, b);
  EXPECT_EQ(store.pc_table().intern(100), a);  // idempotent
  EXPECT_EQ(store.pc_table().index_of(100), a);
  EXPECT_EQ(store.pc_table().pc_of(a), 100u);

  store.reuse_groups(store.pc_table().size())[a].push_back(7);
  store.touched_pcs().push_back(a);
  store.clear();
  // clear() empties per-solve scratch but keeps interned ids and capacity.
  EXPECT_TRUE(store.reuse_groups(store.pc_table().size())[a].empty());
  EXPECT_EQ(store.pc_table().intern(200), b);
}

TEST(ArtifactStore, ClearKeepsGroupCapacity) {
  ArtifactStore store;
  auto& groups = store.reuse_groups(4);
  ASSERT_EQ(groups.size(), 4u);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t id = 0; id < groups.size(); ++id) {
      store.touched_pcs().push_back(static_cast<std::uint32_t>(id));
      for (int k = 0; k < 100; ++k) {
        groups[id].push_back(static_cast<RefCount>(k));
      }
    }
    store.clear();
    for (const auto& g : store.reuse_groups(4)) {
      EXPECT_TRUE(g.empty()) << "round " << round;
      EXPECT_GE(g.capacity(), 100u) << "round " << round;
    }
  }
}

TEST(ArtifactStore, GrowingGroupCountKeepsEarlierBuffers) {
  ArtifactStore store;
  store.reuse_groups(2)[1].push_back(RefCount{42});
  auto& groups = store.reuse_groups(6);
  ASSERT_EQ(groups.size(), 6u);
  ASSERT_EQ(groups[1].size(), 1u);
  EXPECT_EQ(groups[1][0], RefCount{42});
}

// -- thread-safety stress (TSan lane) --------------------------------------

TEST(EngineStress, ConcurrentWindowedSolvesAreIndependent) {
  // 64 concurrent windowed solves: 16 threads x 4 solves, each with its own
  // ArtifactStore (the sharing unit is the store, never the solve). All 16
  // threads fan out on one shared executor, so concurrent fan-outs from
  // different callers run under the same oracle. Under RE_SANITIZE=thread
  // this is the data-race oracle for the whole engine path (sampling,
  // StatStack store reuse, stride fan-out, insertion).
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const std::vector<std::string> names = workloads::suite_names();
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const std::string expected =
      serialize_report(run_optimize(program, machine, {}));

  constexpr int kThreads = 16;
  constexpr int kSolvesPerThread = 4;
  const Executor executor(2);
  std::vector<std::string> mismatches(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactStore store;
      const EngineContext ctx{&executor, &store};
      for (int s = 0; s < kSolvesPerThread; ++s) {
        const std::string got =
            serialize_report(run_optimize(program, machine, {}, ctx));
        if (got != expected) {
          mismatches[t] = "thread " + std::to_string(t) + " solve " +
                          std::to_string(s) + " diverged";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& m : mismatches) EXPECT_EQ(m, "");
}

TEST(EngineStress, PlanCacheComputesEachKeyOnceUnderContention) {
  // Many threads hammer one shared PlanCache with overlapping keys on both
  // machines. Odd threads start on the other machine, so the two machines'
  // reports of a benchmark race for its one shared profile entry, and a
  // machine's three variants race for its Baseline entry. Every returned
  // reference must serialize like a private serial cache's, and distinct
  // keys must not serialize behind one another (call_once is per entry).
  const std::vector<sim::MachineConfig> machines = {sim::amd_phenom_ii(),
                                                    sim::intel_sandybridge()};
  analysis::PlanCache cache;
  const std::vector<std::string> names = workloads::suite_names();
  const std::vector<analysis::Policy> policies = {
      analysis::Policy::Software, analysis::Policy::SoftwareNT,
      analysis::Policy::StrideCentric};

  // expected[m][k]: machine m's report k (benchmark-major) from a private
  // serial cache.
  analysis::PlanCache reference;
  std::vector<std::vector<std::string>> expected(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (const std::string& name : names) {
      for (const analysis::Policy policy : policies) {
        expected[m].push_back(
            serialize_report(reference.report(machines[m], name, policy)));
      }
    }
  }

  constexpr int kThreads = 8;
  std::vector<std::string> mismatches(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < machines.size(); ++i) {
        const std::size_t m = (i + static_cast<std::size_t>(t)) % 2;
        std::size_t k = 0;
        for (const std::string& name : names) {
          for (const analysis::Policy policy : policies) {
            const auto& report = cache.report(machines[m], name, policy);
            if (serialize_report(report) != expected[m][k]) {
              mismatches[t] = machines[m].name + "/" + name + " diverged";
              return;
            }
            ++k;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& m : mismatches) EXPECT_EQ(m, "");
}

}  // namespace
}  // namespace re::engine
