// Deterministic request-schedule simulation for the advisory service.
//
// Drives AdvisoryService with seeded mixed hot/cold plan traffic from N
// simulated client cores in virtual time, and reduces the response stream
// to the service-level metrics (p50/p99 admitted latency, shed rate,
// deadline-miss rate) plus a chained CRC digest over every response in
// emission order — the byte-determinism witness bench_serve compares
// across --jobs counts and across runs.
//
// Also home of the serve-tier crash check: run a journaling service, tear
// the journal the way a crash would (a partial in-flight append, a stray
// checkpoint temp file), recover, and account for every acked entry —
// nothing acked may be lost, nothing never-acked may be served.
//
// PR 9 adds the adversarial-tenant side: run_fairness_sim drives a mixed
// population (well-behaved cores, an optional 100×-rate chatty core, an
// optional slow consumer that stops reading its outbox) with per-core
// independent arrival streams, so a victim core's latency/mix can be
// compared against its solo baseline request-for-request. And the
// poisoned-warm-start check: journal a run, damage the directory the way a
// hostile cache would (bit flips, stale fingerprints, truncation), restart
// with --warm-start, and prove the service degrades to fresh solves but
// never serves alien state or crashes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "engine/executor.hh"
#include "serve/service.hh"
#include "sim/config.hh"
#include "workloads/program.hh"

namespace re::serve {

/// One phase family a client can request plans for: the cache key (a
/// synthetic signature, pairwise-disjoint across families so distinct
/// families never cross-match) plus the sub-profile program the solver
/// optimizes for it.
struct Family {
  std::uint64_t id = 0;
  core::PhaseSignature signature;
  workloads::Program program;
};

/// Families 0..hot-1 are "hot" (requested with probability hot_fraction,
/// quickly cached); the rest are "cold" (the long tail of mostly-missing
/// phases that exercises the solve/shed path).
std::vector<Family> make_families(int hot, int cold);

/// The real miss path: run the analysis engine's optimize graph over the
/// family's program, serially on the calling thread. Honours the cancel
/// token via the EngineContext. The executor parameter is unused (the
/// service fans out due solves itself); it stays only because perfbench
/// still passes one.
AdvisoryService::Solver make_engine_solver(const std::vector<Family>& families,
                                           const sim::MachineConfig& machine,
                                           const engine::Executor*);

/// A cheap deterministic solver (one plan derived from the family id) for
/// harnesses that stress the service/journal layers, not the engine. Still
/// honours the cancel token.
AdvisoryService::Solver make_synthetic_solver(
    const std::vector<Family>& families);

struct TrafficConfig {
  int cores = 64;
  std::uint64_t ticks = 512;
  /// Per-core per-tick request probability (Bernoulli, seeded).
  double request_rate = 0.02;
  double hot_fraction = 0.9;
  int hot_families = 4;
  int cold_families = 64;
  std::uint64_t seed = 0xC0FFEE;
};

struct ServeRunResult {
  ServiceStats stats;
  std::uint64_t responses = 0;
  std::uint64_t final_tick = 0;
  int shards_open = 0;  // breakers terminally open at end of run
  /// Latency percentiles (ticks) over admitted answers (Fresh + CacheHit).
  double p50_admitted = 0.0;
  double p99_admitted = 0.0;
  double shed_rate = 0.0;
  double deadline_miss_rate = 0.0;
  double hit_rate = 0.0;
  double degraded_rate = 0.0;
  /// Chained CRC-32 over the canonical rendering of every response in
  /// emission order — byte-equality witness across --jobs and runs.
  std::uint64_t digest = 0;
  /// Overload/robustness gates (see ISSUE/DESIGN §12).
  bool queue_bounded = true;   // solve queue never exceeded its cap
  bool no_stale_fresh = true;  // every deadline-missed answer was degraded
  bool degraded_safe = true;   // degraded answers were exactly LKG/no-prefetch
  /// Fingerprints acked to the journal during the run (ground truth for
  /// the crash check; empty when journaling was off).
  std::vector<std::uint64_t> acked;

  bool gates_ok() const {
    return queue_bounded && no_stale_fresh && degraded_safe &&
           stats.stale_fresh_violations == 0;
  }
};

/// Run the full virtual-time simulation: seeded arrivals, one step per
/// tick, drain at the end. Deterministic in (traffic, options, solver
/// outputs) — the executor's worker count never changes a byte.
ServeRunResult run_serve_sim(const TrafficConfig& traffic,
                             const ServiceOptions& options,
                             const AdvisoryService::Solver& solver,
                             const engine::Executor* executor);

struct ServeCrashReport {
  int trials = 0;
  int torn_trials = 0;  // crash mid-append (partial record at the tail)
  int tmp_trials = 0;   // crash mid-checkpoint (stray .tmp left behind)
  std::uint64_t acked_total = 0;
  std::uint64_t recovered_total = 0;
  std::uint64_t quarantined = 0;  // torn/corrupt records skipped on load
  std::uint64_t lost_acked = 0;   // acked entries missing after recovery
  std::uint64_t alien_entries = 0;  // recovered entries that were never acked
  std::uint64_t recovery_failures = 0;  // journal loads that hard-failed
  std::uint64_t append_failures = 0;    // post-recovery appends that failed

  /// The crash gate: every acked entry recovered, nothing corrupt served,
  /// every journal loadable and appendable after the crash.
  bool ok() const {
    return lost_acked == 0 && alien_entries == 0 && recovery_failures == 0 &&
           append_failures == 0;
  }
  std::string to_string() const;
};

/// `trials` crash/restart cycles under `scratch_dir` (created if needed).
/// Each trial runs a short journaling service, damages the journals the
/// way a crash would, recovers, and audits acked-vs-recovered entries.
ServeCrashReport serve_crash_check(std::uint64_t seed, int trials,
                                   const std::string& scratch_dir);

/// Stable hex token identifying the machine model + optimizer knobs a
/// run's plans were solved under. Stamped into shard-journal headers;
/// warm-start refuses files whose token differs (plans solved under other
/// assumptions must not be served, however well-formed).
std::string config_fingerprint(const sim::MachineConfig& machine,
                               const core::OptimizerOptions& knobs);

/// Mixed-population traffic for the fairness isolation scenarios. Each
/// core draws its arrivals from its own seeded stream (seed ^ core), so
/// adding or removing an adversary never changes a well-behaved core's
/// request sequence — solo-vs-adversary comparisons are request-for-request.
struct FairnessTraffic {
  /// Well-behaved cores 0..cores-1.
  int cores = 8;
  std::uint64_t ticks = 512;
  /// Per-core per-tick request probability for well-behaved cores.
  double base_rate = 0.02;
  double hot_fraction = 0.9;
  int hot_families = 4;
  int cold_families = 64;
  /// Adversary: core id `cores` submitting at base_rate *
  /// chatty_multiplier, cold families only (every request is a solve).
  bool chatty = false;
  double chatty_multiplier = 100.0;
  /// Adversary: core id `cores + (chatty ? 1 : 0)` submitting at base_rate
  /// but collecting at most slow_collect_per_tick responses per tick
  /// (0 = never reads until the end). Needs FairnessOptions::outbox_capacity.
  bool slow_consumer = false;
  std::size_t slow_collect_per_tick = 0;
  std::uint64_t seed = 0xFA145EED;
};

/// Per-core reduction of one fairness run.
struct CoreMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;   // Fresh + CacheHit answers
  std::uint64_t degraded = 0;   // LKG + NoPrefetch answers
  std::uint64_t quota_shed = 0;  // answers with cause QuotaExceeded
  double p50 = 0.0;  // admitted latency percentiles, ticks
  double p99 = 0.0;
  double degraded_rate = 0.0;  // degraded / max(submitted collected, 1)
};

struct FairnessRunResult {
  ServiceStats stats;
  /// Indexed by core id (adversaries included, after the well-behaved).
  std::vector<CoreMetrics> per_core;
  std::uint64_t responses = 0;
  std::uint64_t final_tick = 0;
  /// Chained CRC over every collected response in collection order — the
  /// byte-determinism witness across --jobs and replays.
  std::uint64_t digest = 0;
  bool queue_bounded = true;
  bool no_stale_fresh = true;
  bool degraded_safe = true;

  bool gates_ok() const {
    return queue_bounded && no_stale_fresh && degraded_safe &&
           stats.stale_fresh_violations == 0;
  }
};

/// Run the mixed-population virtual-time simulation. With outbox mode on,
/// every core collects its responses each tick (the slow consumer at its
/// throttled rate, draining fully only after the run); with it off,
/// responses are taken directly, as in run_serve_sim.
FairnessRunResult run_fairness_sim(const FairnessTraffic& traffic,
                                   const ServiceOptions& options,
                                   const AdvisoryService::Solver& solver,
                                   const engine::Executor* executor);

/// Poisoned-warm-start sweep: what a hostile cache directory can and
/// cannot do to a restarted service.
struct PoisonReport {
  int trials = 0;
  int bitflip_trials = 0;     // random byte/bit flips in a shard journal
  int stale_fp_trials = 0;    // header rewritten with a foreign fingerprint
  int truncated_trials = 0;   // journal cut at a random byte offset
  std::uint64_t warm_entries_loaded = 0;
  std::uint64_t warm_entries_quarantined = 0;
  std::uint64_t warm_files_rejected = 0;
  std::uint64_t stale_fresh = 0;   // stale_fresh_violations across all runs
  std::uint64_t alien_served = 0;  // cache hits not matching pre-poison truth
  std::uint64_t gate_failures = 0;  // runs whose robustness gates failed
  std::uint64_t acked_then_lost = 0;  // post-poison acks lost on re-recovery
  std::uint64_t recovery_failures = 0;  // post-poison journal recover errors

  /// The poison gate: corruption may only cost cache warmth (quarantines,
  /// rejected files) — never correctness, durability, or the process.
  bool ok() const {
    return stale_fresh == 0 && alien_served == 0 && gate_failures == 0 &&
           acked_then_lost == 0 && recovery_failures == 0;
  }
  std::string to_string() const;
};

/// `trials` poison/restart cycles under `scratch_dir`: journal a clean run,
/// damage the directory (rotating bit-flip / stale-fingerprint / truncation,
/// all seeded), warm-start a second service from it, and audit that nothing
/// suspect was served, the run's gates held, and the second run's own acks
/// are durable.
PoisonReport serve_poison_check(std::uint64_t seed, int trials,
                                const std::string& scratch_dir);

}  // namespace re::serve
