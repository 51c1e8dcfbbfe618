#include "analysis/corun.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/sampler.hh"
#include "core/trace_replay.hh"
#include "engine/pipeline.hh"
#include "sim/hw_prefetcher.hh"

namespace re::analysis {

namespace {

/// Small direct-mapped line filter standing in for the private cache in
/// front of the hardware prefetcher: only filter misses train the engines
/// and only filter-missing candidates become fill pseudo-accesses, so the
/// augmented trace does not explode with duplicate fills of hot lines.
class LineFilter {
 public:
  bool touch(Addr line) {
    const std::size_t slot = static_cast<std::size_t>(line) & (kSlots - 1);
    if (table_[slot] == line) return true;
    table_[slot] = line;
    return false;
  }

 private:
  static constexpr std::size_t kSlots = 1024;
  Addr table_[kSlots] = {};
};

}  // namespace

CoreTrace collect_core_trace(const workloads::Program& program,
                             std::uint64_t max_refs,
                             const sim::HwPrefetcherConfig* hw) {
  CoreTrace trace;
  if (hw == nullptr) {
    core::replay_program(
        program, [&](Pc pc, Addr addr) { trace.push_back({pc, addr}); },
        max_refs);
    return trace;
  }

  sim::HwPrefetcherConfig config = *hw;
  config.enabled = true;
  sim::HwPrefetcher prefetcher(config);
  LineFilter filter;
  std::vector<Addr> candidates;
  core::replay_program(
      program,
      [&](Pc pc, Addr addr) {
        trace.push_back({pc, addr});
        // Line 0 is a real address for core 0's first pattern, so seed the
        // filter lazily: a filter hit suppresses both training and fills.
        if (filter.touch(line_of(addr))) return;
        candidates.clear();
        prefetcher.observe(pc, addr, /*l2_hit=*/false,
                           /*dram_queue_delay=*/0, candidates);
        for (Addr line : candidates) {
          if (filter.touch(line)) continue;
          trace.push_back({kHwPrefetchPc, line_base(line)});
        }
      },
      max_refs);
  return trace;
}

void interleave_traces(
    const std::vector<CoreTrace>& traces,
    const std::function<void(int core, const CoreAccess&)>& fn) {
  const std::size_t n = traces.size();
  std::vector<std::size_t> pos(n, 0);
  for (;;) {
    // Next reference: the core with the smallest fractional progress
    // (pos + 1) / len, compared exactly by cross-multiplication; ties go
    // to the lowest core id.
    int next = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (pos[i] >= traces[i].size()) continue;
      if (next < 0) {
        next = static_cast<int>(i);
        continue;
      }
      const auto lhs = static_cast<unsigned __int128>(pos[i] + 1) *
                       traces[static_cast<std::size_t>(next)].size();
      const auto rhs =
          static_cast<unsigned __int128>(pos[static_cast<std::size_t>(next)] +
                                         1) *
          traces[i].size();
      if (lhs < rhs) next = static_cast<int>(i);
    }
    if (next < 0) return;
    const auto c = static_cast<std::size_t>(next);
    fn(next, traces[c][pos[c]]);
    ++pos[c];
  }
}

CoRunModel::CoRunModel(std::vector<CoRunCoreInput> cores) {
  cores_.reserve(cores.size());
  for (const CoRunCoreInput& input : cores) {
    assert(input.profile != nullptr && input.model != nullptr);
    CoreState state;
    state.solver = &input.model->solver();
    state.distances.reserve(input.profile->reuse_samples.size());
    for (const core::ReuseSample& s : input.profile->reuse_samples) {
      state.distances.push_back(s.distance);
    }
    std::sort(state.distances.begin(), state.distances.end());
    state.dangling =
        static_cast<double>(input.profile->dangling_reuse_samples);
    state.weight = input.weight > 0.0 ? input.weight : 1.0;
    cores_.push_back(std::move(state));
  }
}

double CoRunModel::shared_stack_distance(int core,
                                         RefCount reuse_distance) const {
  const auto i = static_cast<std::size_t>(core);
  if (reuse_distance == kInfiniteDistance) {
    return std::numeric_limits<double>::infinity();
  }
  double sd = cores_[i].solver->stack_distance(reuse_distance);
  for (std::size_t j = 0; j < cores_.size(); ++j) {
    if (j == i) continue;
    // Core j advances w_j / w_i references per reference of core i.
    const double scaled = static_cast<double>(reuse_distance) *
                          cores_[j].weight / cores_[i].weight;
    // Truncation keeps the composed function monotone in reuse_distance;
    // clamp below the RefCount sentinel before converting.
    const double clamped = std::min(scaled, 9.0e18);
    sd += cores_[j].solver->stack_distance(static_cast<RefCount>(clamped));
  }
  return sd;
}

RefCount CoRunModel::critical_reuse_distance(int core,
                                             double shared_lines) const {
  if (shared_lines <= 0.0) return 0;
  if (cores_.size() == 1) {
    // Solo run: the composed function IS the core's own solver, so invert
    // it exactly — composed results match StatStack's MRC bit-for-bit.
    return cores_[0].solver->reuse_distance_for(shared_lines);
  }
  // The composed function is monotone non-decreasing: exponential search
  // for an upper bracket, then binary search for the smallest reaching D.
  constexpr RefCount kCap = RefCount{1} << 62;
  RefCount hi = 1;
  while (hi < kCap && shared_stack_distance(core, hi) < shared_lines) {
    hi <<= 1;
  }
  if (shared_stack_distance(core, hi) < shared_lines) {
    return kInfiniteDistance;  // the co-run set never fills the cache
  }
  RefCount lo = hi >> 1;  // SD(lo) < shared_lines (or lo == 0)
  while (lo + 1 < hi) {
    const RefCount mid = lo + (hi - lo) / 2;
    if (shared_stack_distance(core, mid) < shared_lines) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

double CoRunModel::shared_miss_ratio_lines(int core,
                                           std::uint64_t cache_lines) const {
  const CoreState& state = cores_[static_cast<std::size_t>(core)];
  const double samples =
      static_cast<double>(state.distances.size()) + state.dangling;
  if (samples <= 0.0) return 0.0;
  const RefCount critical =
      critical_reuse_distance(core, static_cast<double>(cache_lines));
  double misses = state.dangling;
  if (critical != kInfiniteDistance) {
    auto it = std::lower_bound(state.distances.begin(), state.distances.end(),
                               critical);
    misses += static_cast<double>(state.distances.end() - it);
  }
  return misses / samples;
}

std::uint64_t CoRunModel::effective_llc_lines(int core,
                                              std::uint64_t llc_lines) const {
  if (llc_lines == 0) return 0;
  const RefCount critical =
      critical_reuse_distance(core, static_cast<double>(llc_lines));
  if (critical == kInfiniteDistance) return llc_lines;  // cache never fills
  const double own =
      cores_[static_cast<std::size_t>(core)].solver->stack_distance(critical);
  // Floor is the conservative direction: a smaller share predicts more
  // misses, so the planner never undersells contention.
  const auto floored = static_cast<std::uint64_t>(std::floor(own));
  return std::clamp<std::uint64_t>(floored, 1, llc_lines);
}

core::Profile demand_only_profile(const core::Profile& augmented) {
  core::Profile demand;
  demand.sample_period = augmented.sample_period;
  demand.reuse_samples.reserve(augmented.reuse_samples.size());
  for (const core::ReuseSample& s : augmented.reuse_samples) {
    if (s.first_pc == kHwPrefetchPc || s.second_pc == kHwPrefetchPc) continue;
    demand.reuse_samples.push_back(s);
  }
  demand.stride_samples.reserve(augmented.stride_samples.size());
  for (const core::StrideSample& s : augmented.stride_samples) {
    if (s.pc == kHwPrefetchPc) continue;
    demand.stride_samples.push_back(s);
  }
  demand.dangling_reuse_samples = augmented.dangling_reuse_samples;
  for (const auto& [pc, count] : augmented.dangling_by_pc) {
    if (pc == kHwPrefetchPc) {
      demand.dangling_reuse_samples -= count;
      continue;
    }
    demand.dangling_by_pc.emplace(pc, count);
  }
  demand.total_references = augmented.total_references;
  for (const auto& [pc, count] : augmented.pc_execution_counts) {
    if (pc == kHwPrefetchPc) {
      demand.total_references -= count;
      continue;
    }
    demand.pc_execution_counts.emplace(pc, count);
  }
  return demand;
}

namespace {

std::uint64_t auto_sample_period(std::size_t trace_len) {
  // The corun pipeline samples short synthetic traces (max_refs_per_core is
  // 2^16 by default, vs ~10^6 for the solo pipeline), so the solo default
  // period would leave a few dozen samples per core. Target ~16k samples
  // instead, matching the differential harness's auto period.
  return std::max<std::uint64_t>(1, trace_len / 16384);
}

engine::StageGraph<CoRunArtifacts> build_graph() {
  engine::StageGraph<CoRunArtifacts> graph;

  graph.add({"corun_trace", "programs, machine", "traces", {},
             [](CoRunArtifacts& a, const engine::EngineContext&) {
               const std::size_t n = a.programs->size();
               a.traces.resize(n);
               for (std::size_t i = 0; i < n; ++i) {
                 const bool hw_on = i < a.hw_prefetch_core.size()
                                        ? a.hw_prefetch_core[i] != 0
                                        : a.model_hw_prefetch;
                 if (hw_on) {
                   const sim::HwPrefetcherConfig hw =
                       a.hw_config ? *a.hw_config : a.machine->hw_prefetcher;
                   a.traces[i] = collect_core_trace((*a.programs)[i],
                                                    a.max_refs_per_core, &hw);
                 } else {
                   a.traces[i] = collect_core_trace((*a.programs)[i],
                                                    a.max_refs_per_core);
                 }
               }
             }});

  graph.add({"corun_sample", "traces", "profiles", {},
             [](CoRunArtifacts& a, const engine::EngineContext&) {
               const std::size_t n = a.traces.size();
               a.profiles.resize(n);
               for (std::size_t i = 0; i < n; ++i) {
                 core::SamplerConfig config;
                 config.sample_period = auto_sample_period(a.traces[i].size());
                 config.seed = a.knobs.sample_seed + i;
                 core::Sampler sampler(config);
                 for (const CoreAccess& access : a.traces[i]) {
                   sampler.observe(access.pc, access.addr);
                 }
                 a.profiles[i] = sampler.finish();
               }
             }});

  graph.add({"corun_statstack", "profiles", "models", {},
             [](CoRunArtifacts& a, const engine::EngineContext&) {
               const std::size_t n = a.profiles.size();
               a.models.resize(n);
               for (std::size_t i = 0; i < n; ++i) {
                 a.models[i] =
                     std::make_unique<core::StatStack>(a.profiles[i]);
               }
             }});

  graph.add({"corun_compose", "profiles, models, machine",
             "corun, effective_llc_lines", {},
             [](CoRunArtifacts& a, const engine::EngineContext& ctx) {
               ctx.check_cancel();
               const std::size_t n = a.profiles.size();
               std::vector<CoRunCoreInput> inputs(n);
               for (std::size_t i = 0; i < n; ++i) {
                 inputs[i].profile = &a.profiles[i];
                 inputs[i].model = a.models[i].get();
                 inputs[i].weight = static_cast<double>(a.traces[i].size());
               }
               a.corun = std::make_unique<CoRunModel>(std::move(inputs));
               const std::uint64_t llc_lines = a.machine->llc.num_lines();
               a.effective_llc_lines.resize(n);
               for (std::size_t i = 0; i < n; ++i) {
                 a.effective_llc_lines[i] = a.corun->effective_llc_lines(
                     static_cast<int>(i), llc_lines);
               }
             }});

  graph.add({"corun_mddli", "programs, profiles, effective_llc_lines",
             "reports", {},
             [](CoRunArtifacts& a, const engine::EngineContext& ctx) {
               const std::size_t n = a.profiles.size();
               a.reports.resize(n);
               for (std::size_t i = 0; i < n; ++i) {
                 engine::AnalysisKnobs knobs = a.knobs;
                 knobs.llc_effective_bytes =
                     a.effective_llc_lines[i] * kLineSize;
                 // The nested solve shares the co-run solve's cancel token.
                 a.reports[i] = engine::run_optimize_with_profile(
                     (*a.programs)[i], demand_only_profile(a.profiles[i]),
                     *a.machine, engine::make_optimizer_options(knobs), ctx);
               }
             }});

  return graph;
}

}  // namespace

void run_corun(CoRunArtifacts& artifacts, const engine::EngineContext& ctx) {
  assert(artifacts.programs != nullptr && artifacts.machine != nullptr);
  static const engine::StageGraph<CoRunArtifacts> graph = build_graph();
  graph.run(artifacts, ctx);
}

}  // namespace re::analysis
