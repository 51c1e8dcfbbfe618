// Shared-cache co-run composition (PPT-Multicore / Barai et al. style).
//
// A co-run set is N programs pinned to N cores sharing one LLC. Each core's
// solo StatStack profile describes its *private* reuse behaviour; under
// co-running, every reuse window additionally admits the neighbours'
// intervening accesses, inflating the effective stack distance. With a
// uniform interleave ratio — core j issues w_j references for every w_i of
// core i — a reuse of core i spanning D of its own references spans
// D * w_j / w_i references of core j, so the expected number of *distinct
// lines* inside the window is
//
//     SD_shared,i(D) = SD_i(D) + sum_{j != i} SD_j(D * w_j / w_i)
//
// where SD_j is core j's solo expected-stack-distance function (StatStack's
// piecewise-linear solver). Inverting the (monotone) composed function at
// the shared-LLC size S yields the critical reuse distance D*_i(S) — the
// smallest private reuse distance that misses — from which core i's
// effective shared-LLC miss ratio and its effective capacity share
// SD_i(D*) (the fraction of the stack its own lines occupy at the miss
// boundary) both follow analytically, with no interleaved simulation.
//
// Assumptions (checked by the co-run differential harness in src/verify/
// against ExactSharedLruModel, the true interleaved-LRU oracle):
//   * uniform interleave ratio (no phase-correlated bursts across cores),
//   * disjoint address spaces (no sharing, no coherence traffic),
//   * LRU replacement in a fully-associative shared LLC.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/pipeline.hh"
#include "core/statstack.hh"
#include "engine/options.hh"
#include "engine/stage.hh"
#include "sim/config.hh"
#include "support/types.hh"
#include "workloads/program.hh"

namespace re::analysis {

/// Sentinel PC attributed to hardware-prefetcher fill pseudo-accesses in an
/// augmented core trace. Never collides with real PCs (workload PCs are
/// small dense integers) and is stripped by demand_only_profile() before
/// any per-core plan solve.
inline constexpr Pc kHwPrefetchPc = 0xFFFFFFFFu;

/// One reference of one core's (possibly hw-prefetch-augmented) trace.
struct CoreAccess {
  Pc pc = 0;
  Addr addr = 0;
};

/// One core's full replayed trace, in program order.
using CoreTrace = std::vector<CoreAccess>;

/// Replay `program` (capped at `max_refs` demand references) into a trace.
/// When `hw` is non-null, a sim::HwPrefetcher shadows the demand stream
/// behind a small L1-like line filter and its fill candidates are spliced
/// in as kHwPrefetchPc pseudo-accesses right after the triggering demand —
/// the prefetcher's LLC footprint becomes part of the core's contention
/// signal, symmetrically visible to the composed model (via the sampler)
/// and to the shared-LRU oracle (via the same trace).
CoreTrace collect_core_trace(const workloads::Program& program,
                             std::uint64_t max_refs,
                             const sim::HwPrefetcherConfig* hw = nullptr);

/// Deterministic proportional-progress interleaving of N core traces: the
/// next reference comes from the core with the smallest fractional progress
/// (t_i + 1) / L_i, ties broken toward the lowest core id. This realizes
/// the uniform-interleave-ratio assumption exactly, and both the oracle and
/// any replay consumer share this one definition of "the interleaved
/// trace". Calls `fn(core, access)` for every reference in global order.
void interleave_traces(
    const std::vector<CoreTrace>& traces,
    const std::function<void(int core, const CoreAccess&)>& fn);

/// Per-core input to the composition: the solo profile and StatStack model
/// (both owned by the caller and outliving the CoRunModel) plus the core's
/// interleave weight (relative reference rate; trace lengths in practice).
struct CoRunCoreInput {
  const core::Profile* profile = nullptr;
  const core::StatStack* model = nullptr;
  double weight = 1.0;
};

/// The composed shared-LLC model over one co-run set.
class CoRunModel {
 public:
  explicit CoRunModel(std::vector<CoRunCoreInput> cores);

  int cores() const { return static_cast<int>(cores_.size()); }

  /// SD_shared,core(D): expected distinct lines in the shared stack across
  /// a window of D of `core`'s own references. Monotone non-decreasing.
  double shared_stack_distance(int core, RefCount reuse_distance) const;

  /// Smallest private reuse distance of `core` whose composed shared stack
  /// distance reaches `shared_lines`; kInfiniteDistance if never reached
  /// (the co-run set cannot fill the cache).
  RefCount critical_reuse_distance(int core, double shared_lines) const;

  /// `core`'s effective miss ratio in a shared fully-associative LRU cache
  /// of `cache_lines` lines under this co-run: the fraction of its sampled
  /// accesses whose private reuse distance reaches the critical distance.
  double shared_miss_ratio_lines(int core, std::uint64_t cache_lines) const;
  double shared_miss_ratio_bytes(int core, std::uint64_t bytes) const {
    return shared_miss_ratio_lines(core, bytes / kLineSize);
  }

  /// `core`'s effective capacity share of a shared LLC of `llc_lines`
  /// lines: the expected number of its *own* lines in the stack at the miss
  /// boundary, SD_core(D*). Clamped to [1, llc_lines]; a core whose co-run
  /// never fills the cache keeps the full capacity. Feeds
  /// engine::AnalysisKnobs::llc_effective_bytes (floor = conservative:
  /// predicts more misses, never fewer).
  std::uint64_t effective_llc_lines(int core, std::uint64_t llc_lines) const;

 private:
  struct CoreState {
    const core::StackDistanceSolver* solver = nullptr;
    std::vector<RefCount> distances;  // sampled private reuse distances, asc
    double dangling = 0.0;
    double weight = 1.0;
  };
  std::vector<CoreState> cores_;
};

/// Copy of `augmented` with every kHwPrefetchPc pseudo-access stripped:
/// reuse/stride samples touching the sentinel are dropped, its dangling and
/// execution counts are subtracted. This is the profile the per-core plan
/// solve runs on — software prefetch decisions are made for demand loads
/// only, while the contention composition above keeps the full augmented
/// stream.
core::Profile demand_only_profile(const core::Profile& augmented);

/// Artifact set flowing through the co-run graph. Bound inputs are
/// pointers/values set by the caller; everything else is produced by
/// stages. Every stage loops over the cores serially; callers fan out
/// whole co-run solves (scenario cells, machines) instead.
struct CoRunArtifacts {
  // -- bound inputs
  const std::vector<workloads::Program>* programs = nullptr;
  const sim::MachineConfig* machine = nullptr;
  engine::AnalysisKnobs knobs;
  /// Augment every core's trace with its hardware-prefetcher fill stream
  /// (machine->hw_prefetcher geometry, forced enabled).
  bool model_hw_prefetch = false;
  /// Per-core hw-prefetch enable; when non-empty it overrides
  /// model_hw_prefetch core by core (asymmetric co-runs: streaming
  /// aggressors prefetch, the chase victim does not).
  std::vector<std::uint8_t> hw_prefetch_core;
  /// Optional prefetcher-geometry override for the augmented cores (e.g.
  /// forcing the speculative adjacent-line engine for interference
  /// studies); null = machine->hw_prefetcher.
  const sim::HwPrefetcherConfig* hw_config = nullptr;
  /// Demand-reference cap per core (keeps 8-core differential runs inside
  /// sanitizer-friendly memory).
  std::uint64_t max_refs_per_core = std::uint64_t{1} << 16;

  // -- produced artifacts
  std::vector<CoreTrace> traces;                         // corun_trace
  std::vector<core::Profile> profiles;                   // corun_sample
  std::vector<std::unique_ptr<core::StatStack>> models;  // corun_statstack
  std::unique_ptr<CoRunModel> corun;                     // corun_compose
  std::vector<std::uint64_t> effective_llc_lines;        // corun_compose
  std::vector<core::OptimizationReport> reports;         // corun_mddli
};

/// Run the co-run pipeline over a fully bound artifact set: corun_trace →
/// corun_sample → corun_statstack → corun_compose → corun_mddli. The last
/// stage re-runs the full per-core optimization (MDDLI → stride/distance →
/// bypass → insert) over the demand-only profile with
/// knobs.llc_effective_bytes set to the composed effective share, so every
/// downstream verdict prices LLC misses at the capacity the core actually
/// gets.
void run_corun(CoRunArtifacts& artifacts,
               const engine::EngineContext& ctx = {});

}  // namespace re::analysis
