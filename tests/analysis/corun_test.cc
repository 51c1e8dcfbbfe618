// Unit and property tests for the co-run composition: trace collection,
// proportional-progress interleaving, CoRunModel's composed shared MRCs and
// effective capacity shares, the demand-only profile strip, and the
// plumbing of the full co-run graph.
#include "analysis/corun.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.hh"
#include "core/statstack.hh"
#include "core/trace_replay.hh"
#include "sim/config.hh"
#include "testutil.hh"
#include "verify/trace_fuzzer.hh"
#include "workloads/mix.hh"

namespace re::analysis {
namespace {

workloads::Program corun_program(int core, verify::TraceFamily family) {
  verify::FuzzedTrace fuzzed =
      verify::make_trace(family, re::testing::test_seed(), core);
  workloads::rebase_program(fuzzed.program,
                            workloads::core_address_offset(core));
  return fuzzed.program;
}

core::Profile sample_trace(const CoreTrace& trace, std::uint64_t period) {
  core::Sampler sampler(core::SamplerConfig{period, 42});
  for (const CoreAccess& access : trace) {
    sampler.observe(access.pc, access.addr);
  }
  return sampler.finish();
}

TEST(Interleave, ProportionalProgressIsDeterministicAndFair) {
  // Lengths 2 and 4: the next reference always comes from the core with
  // the smallest (pos+1)/len, so core 1 leads (1/4 < 1/2) and issues twice
  // per core-0 reference, with ties at equal progress going to core 0.
  std::vector<CoreTrace> traces(2);
  traces[0] = {{1, 0}, {1, 64}};
  traces[1] = {{2, 0}, {2, 64}, {2, 128}, {2, 192}};
  std::vector<int> order;
  interleave_traces(traces, [&](int core, const CoreAccess&) {
    order.push_back(core);
  });
  const std::vector<int> expected = {1, 0, 1, 1, 0, 1};
  EXPECT_EQ(order, expected);

  // Same input, same order — bitwise determinism.
  std::vector<int> again;
  interleave_traces(traces, [&](int core, const CoreAccess&) {
    again.push_back(core);
  });
  EXPECT_EQ(order, again);
}

TEST(Interleave, EmitsEveryReferenceExactlyOnce) {
  std::vector<CoreTrace> traces(3);
  traces[0].assign(7, CoreAccess{1, 0});
  traces[1].assign(13, CoreAccess{2, 64});
  traces[2].assign(29, CoreAccess{3, 128});
  std::vector<std::uint64_t> counts(3, 0);
  interleave_traces(traces, [&](int core, const CoreAccess&) {
    ++counts[static_cast<std::size_t>(core)];
  });
  EXPECT_EQ(counts[0], 7u);
  EXPECT_EQ(counts[1], 13u);
  EXPECT_EQ(counts[2], 29u);
}

TEST(CollectCoreTrace, HwPrefetchAugmentationUsesSentinelPc) {
  const workloads::Program program =
      corun_program(0, verify::TraceFamily::kStrided);
  const CoreTrace demand = collect_core_trace(program, 4096);
  sim::HwPrefetcherConfig hw = sim::amd_phenom_ii().hw_prefetcher;
  const CoreTrace augmented = collect_core_trace(program, 4096, &hw);

  ASSERT_GE(augmented.size(), demand.size());
  std::uint64_t fills = 0;
  for (const CoreAccess& access : augmented) {
    if (access.pc == kHwPrefetchPc) {
      ++fills;
      EXPECT_EQ(access.addr % kLineSize, 0u);  // fills are line-aligned
    }
  }
  EXPECT_EQ(augmented.size(), demand.size() + fills);
  // A strided sweep trains the stream engine; fills must actually appear.
  EXPECT_GT(fills, 0u);
}

TEST(CoRunModel, SingleCoreCompositionMatchesOwnStatStackExactly) {
  const workloads::Program program =
      corun_program(0, verify::TraceFamily::kPointerChase);
  const CoreTrace trace = collect_core_trace(program, 1 << 14);
  const core::Profile profile = sample_trace(trace, 16);
  const core::StatStack model(profile);

  const CoRunModel corun({CoRunCoreInput{&profile, &model, 1.0}});
  for (std::uint64_t lines : {64u, 1024u, 12288u, 65536u}) {
    EXPECT_DOUBLE_EQ(corun.shared_miss_ratio_lines(0, lines),
                     model.application_mrc().miss_ratio_lines(lines))
        << "lines=" << lines;
  }
}

TEST(CoRunModel, SymmetricCoresSplitTheCacheEvenly) {
  // Two identical strided cores (same family, same seed variant shape):
  // their composed shares of the LLC must come out (nearly) equal.
  std::vector<CoreTrace> traces;
  std::vector<core::Profile> profiles;
  std::vector<std::unique_ptr<core::StatStack>> models;
  std::vector<CoRunCoreInput> inputs;
  for (int core = 0; core < 2; ++core) {
    workloads::Program program =
        corun_program(0, verify::TraceFamily::kStrided);
    workloads::rebase_program(program, workloads::core_address_offset(core));
    traces.push_back(collect_core_trace(program, 1 << 14));
  }
  for (const CoreTrace& trace : traces) {
    profiles.push_back(sample_trace(trace, 16));
  }
  for (const core::Profile& profile : profiles) {
    models.push_back(std::make_unique<core::StatStack>(profile));
  }
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    inputs.push_back(CoRunCoreInput{&profiles[i], models[i].get(),
                                    static_cast<double>(traces[i].size())});
  }
  const CoRunModel corun(std::move(inputs));
  const std::uint64_t llc = sim::amd_phenom_ii().llc.num_lines();
  const std::uint64_t share0 = corun.effective_llc_lines(0, llc);
  const std::uint64_t share1 = corun.effective_llc_lines(1, llc);
  // Shares are clamped to >= 1, so the ratio is well-defined.
  const double ratio =
      static_cast<double>(share0) / static_cast<double>(share1);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
  // And a shared cache is a partition: the shares cannot exceed capacity
  // by more than composition slack (each is clamped to [1, llc]).
  EXPECT_GE(share0, 1u);
  EXPECT_LE(share0, llc);
  EXPECT_GE(share1, 1u);
  EXPECT_LE(share1, llc);
}

TEST(CoRunModel, StreamingNeighbourShrinksAChaseCoresShare) {
  const workloads::Program chase =
      corun_program(0, verify::TraceFamily::kPointerChase);
  workloads::Program stream =
      corun_program(1, verify::TraceFamily::kStrided);

  const CoreTrace chase_trace = collect_core_trace(chase, 1 << 14);
  const CoreTrace stream_trace = collect_core_trace(stream, 1 << 14);
  const core::Profile chase_profile = sample_trace(chase_trace, 16);
  const core::Profile stream_profile = sample_trace(stream_trace, 16);
  const core::StatStack chase_model(chase_profile);
  const core::StatStack stream_model(stream_profile);

  const std::uint64_t llc = sim::amd_phenom_ii().llc.num_lines();
  const CoRunModel solo({CoRunCoreInput{&chase_profile, &chase_model, 1.0}});
  const CoRunModel pair(
      {CoRunCoreInput{&chase_profile, &chase_model,
                      static_cast<double>(chase_trace.size())},
       CoRunCoreInput{&stream_profile, &stream_model,
                      static_cast<double>(stream_trace.size())}});

  EXPECT_LT(pair.effective_llc_lines(0, llc), solo.effective_llc_lines(0, llc));
  EXPECT_GE(pair.shared_miss_ratio_lines(0, llc) + 1e-12,
            solo.shared_miss_ratio_lines(0, llc));
}

TEST(CoRunModel, SharedStackDistanceIsMonotone) {
  const workloads::Program program =
      corun_program(0, verify::TraceFamily::kHotCold);
  const CoreTrace trace = collect_core_trace(program, 1 << 13);
  const core::Profile profile = sample_trace(trace, 16);
  const core::StatStack model(profile);
  const CoRunModel corun({CoRunCoreInput{&profile, &model, 1.0},
                          CoRunCoreInput{&profile, &model, 1.0}});
  double prev = 0.0;
  for (RefCount d = 1; d <= (RefCount{1} << 20); d *= 4) {
    const double sd = corun.shared_stack_distance(0, d);
    EXPECT_GE(sd + 1e-9, prev) << "d=" << d;
    prev = sd;
  }
}

TEST(DemandOnlyProfile, StripsTheSentinelPc) {
  core::Profile augmented;
  augmented.reuse_samples.push_back(core::ReuseSample{1, 2, 10});
  augmented.reuse_samples.push_back(core::ReuseSample{kHwPrefetchPc, 1, 4});
  augmented.reuse_samples.push_back(core::ReuseSample{2, kHwPrefetchPc, 7});
  augmented.stride_samples.push_back(core::StrideSample{1, 64});
  augmented.stride_samples.push_back(core::StrideSample{kHwPrefetchPc, 64});
  augmented.dangling_reuse_samples = 5;
  augmented.dangling_by_pc[1] = 2;
  augmented.dangling_by_pc[kHwPrefetchPc] = 3;
  augmented.pc_execution_counts[1] = 50;
  augmented.pc_execution_counts[2] = 30;
  augmented.pc_execution_counts[kHwPrefetchPc] = 20;
  augmented.total_references = 100;
  augmented.sample_period = 4;

  const core::Profile demand = demand_only_profile(augmented);
  ASSERT_EQ(demand.reuse_samples.size(), 1u);
  EXPECT_EQ(demand.reuse_samples[0].first_pc, 1u);
  ASSERT_EQ(demand.stride_samples.size(), 1u);
  EXPECT_EQ(demand.dangling_reuse_samples, 2u);
  EXPECT_EQ(demand.dangling_by_pc.count(kHwPrefetchPc), 0u);
  EXPECT_EQ(demand.pc_execution_counts.count(kHwPrefetchPc), 0u);
  EXPECT_EQ(demand.total_references, 80u);
  EXPECT_EQ(demand.sample_period, 4u);
}

TEST(CoRunGraph, EffectiveShareFlowsIntoPlanKnobs) {
  // The composed share must reach the per-core optimizer: a tiny effective
  // LLC raises modeled miss costs. Check the plumbing end to end by
  // asserting the graph populated per-core shares and reports.
  std::vector<workloads::Program> programs;
  programs.push_back(corun_program(0, verify::TraceFamily::kPointerChase));
  programs.push_back(corun_program(1, verify::TraceFamily::kStrided));

  CoRunArtifacts artifacts;
  artifacts.programs = &programs;
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  artifacts.machine = &machine;
  artifacts.max_refs_per_core = 1 << 13;
  run_corun(artifacts);

  ASSERT_EQ(artifacts.effective_llc_lines.size(), 2u);
  ASSERT_EQ(artifacts.reports.size(), 2u);
  const std::uint64_t llc = machine.llc.num_lines();
  for (const std::uint64_t share : artifacts.effective_llc_lines) {
    EXPECT_GE(share, 1u);
    EXPECT_LE(share, llc);
  }
  // Co-running with a streaming neighbour, neither core keeps the whole
  // cache to itself.
  EXPECT_LT(artifacts.effective_llc_lines[0] + artifacts.effective_llc_lines[1],
            2 * llc);
}

}  // namespace
}  // namespace re::analysis
