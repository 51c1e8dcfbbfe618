// P1 — component microbenchmarks (google-benchmark): throughput of the
// framework's building blocks. These are engineering benchmarks, not paper
// artifacts: they document that the profiling/modeling pipeline is "fast"
// in the paper's sense (StatStack: "typically less than a minute"; here:
// milliseconds at reproduction scale).
#include <benchmark/benchmark.h>

#include <vector>

#include "analysis/functional_sim.hh"
#include "core/pipeline.hh"
#include "core/sampler.hh"
#include "core/statstack.hh"
#include "sim/cache.hh"
#include "sim/memory_system.hh"
#include "sim/system.hh"
#include "support/rng.hh"
#include "workloads/cursor.hh"
#include "workloads/suite.hh"

namespace {

using namespace re;

void BM_ProgramCursor(benchmark::State& state) {
  const workloads::Program program = workloads::make_benchmark("libquantum");
  workloads::ProgramCursor cursor(program);
  for (auto _ : state) {
    auto event = cursor.next();
    if (!event) event = cursor.next();
    benchmark::DoNotOptimize(event->addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProgramCursor);

void BM_CacheAccessHit(benchmark::State& state) {
  sim::SetAssocCache cache(sim::CacheGeometry{32 << 10, 8});
  for (Addr line = 0; line < 256; ++line) {
    cache.fill(line, sim::FillOrigin::Demand);
  }
  Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line, true));
    line = (line + 1) & 255;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessHit);

struct NamedGeometry {
  const char* name;
  sim::CacheGeometry geometry;
};

/// The six Table II cache geometries (L1, L2, LLC of each machine).
std::vector<NamedGeometry> table2_geometries() {
  const sim::MachineConfig amd = sim::amd_phenom_ii();
  const sim::MachineConfig intel = sim::intel_sandybridge();
  return {{"amd_l1", amd.l1},     {"amd_l2", amd.l2},
          {"amd_llc", amd.llc},   {"intel_l1", intel.l1},
          {"intel_l2", intel.l2}, {"intel_llc", intel.llc}};
}

/// 64 Ki random lines from a 2^40-line universe. Cycling through them
/// misses at every Table II level once the caches are warm: each set sees
/// more distinct lines between two uses of a line than it has ways.
std::vector<Addr> random_lines() {
  Rng rng(42);
  std::vector<Addr> lines(1 << 16);
  for (Addr& line : lines) line = rng.next(Addr{1} << 40);
  return lines;
}

void BM_CacheFillEvict(benchmark::State& state) {
  const NamedGeometry shape =
      table2_geometries()[static_cast<std::size_t>(state.range(0))];
  sim::SetAssocCache cache(shape.geometry);
  const std::vector<Addr> lines = random_lines();
  // One warm pass fills every way, so each timed fill evicts.
  for (Addr line : lines) {
    if (!cache.access(line, true)) cache.fill(line, sim::FillOrigin::Demand);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Addr line = lines[i++ & (lines.size() - 1)];
    if (!cache.access(line, true)) {
      benchmark::DoNotOptimize(cache.fill(line, sim::FillOrigin::Demand));
    }
  }
  state.SetLabel(shape.name);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheFillEvict)->DenseRange(0, 5);

/// The whole miss path of one reference: L1, L2 and LLC probes and fills
/// plus the DRAM fetch (AMD hierarchy, one core, HW prefetcher off).
void BM_DemandLoadMiss(benchmark::State& state) {
  sim::MemorySystem memory(sim::amd_phenom_ii(), 1);
  const std::vector<Addr> lines = random_lines();
  Cycle now = 0;
  for (Addr line : lines) now += memory.demand_load(0, 0, line * kLineSize, now);
  std::size_t i = 0;
  for (auto _ : state) {
    const Addr addr = lines[i++ & (lines.size() - 1)] * kLineSize;
    now += memory.demand_load(0, 0, addr, now);
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandLoadMiss);

void BM_SamplerObserve(benchmark::State& state) {
  core::Sampler sampler(core::SamplerConfig{
      static_cast<std::uint64_t>(state.range(0)), 42});
  // The cursor holds a reference: the program must outlive it.
  const workloads::Program program = workloads::make_benchmark("gcc");
  workloads::ProgramCursor cursor(program);
  for (auto _ : state) {
    auto event = cursor.next();
    if (!event) event = cursor.next();
    sampler.observe(event->inst->pc, event->addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerObserve)->Arg(1000)->Arg(100000);

void BM_StatStackBuild(benchmark::State& state) {
  const core::Profile profile =
      core::profile_program(workloads::make_benchmark("mcf"),
                            core::SamplerConfig{1000, 42});
  for (auto _ : state) {
    core::StatStack model(profile);
    benchmark::DoNotOptimize(
        model.application_mrc().miss_ratio_bytes(768 << 10));
  }
}
BENCHMARK(BM_StatStackBuild);

void BM_MrcQuery(benchmark::State& state) {
  const core::Profile profile =
      core::profile_program(workloads::make_benchmark("mcf"),
                            core::SamplerConfig{1000, 42});
  const core::StatStack model(profile);
  std::uint64_t size = 8 << 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.application_mrc().miss_ratio_bytes(size));
    size = size >= (8 << 20) ? (8 << 10) : size * 2;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MrcQuery);

void BM_FunctionalSim(benchmark::State& state) {
  const workloads::Program program = workloads::make_benchmark("libquantum");
  const sim::CacheGeometry l1{64 << 10, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::functional_simulate(program, l1, 100000));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_FunctionalSim);

void BM_TimedSimulation(benchmark::State& state) {
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  workloads::Program program = workloads::make_benchmark("soplex");
  // Shorten to keep each iteration sub-second.
  for (auto& loop : program.loops) loop.iterations /= 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_single(machine, program, true));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              program.total_references()));
}
BENCHMARK(BM_TimedSimulation);

void BM_FullPipeline(benchmark::State& state) {
  const sim::MachineConfig machine = sim::amd_phenom_ii();
  const workloads::Program program = workloads::make_benchmark("libquantum");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_program(program, machine));
  }
}
BENCHMARK(BM_FullPipeline);

}  // namespace

BENCHMARK_MAIN();
