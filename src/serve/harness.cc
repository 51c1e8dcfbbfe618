#include "serve/harness.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "engine/pipeline.hh"
#include "support/atomic_file.hh"
#include "support/checksum.hh"

namespace re::serve {

namespace {

/// Base PC for family f's signature; families are pairwise disjoint so
/// signature_distance between any two is 2.0 (never cross-matches).
Pc family_base_pc(std::uint64_t family) {
  return static_cast<Pc>(0x1000 + family * 16);
}

void ensure_dir(const std::string& path) {
  ::mkdir(path.c_str(), 0755);  // EEXIST is fine; creation is best-effort
}

std::uint64_t chain_crc(std::uint64_t digest, const std::string& text) {
  return support::crc32(text + support::crc32_hex(
                                   static_cast<std::uint32_t>(digest)));
}

std::string render_response(const PlanResponse& response) {
  char head[160];
  std::snprintf(head, sizeof head,
                "id=%" PRIu64 " core=%d kind=%s cause=%s lat=%" PRIu64
                " miss=%d retries=%d plans=",
                response.id, response.core,
                answer_kind_name(response.kind),
                degrade_cause_name(response.cause), response.latency_ticks,
                response.deadline_missed ? 1 : 0, response.retries);
  std::string line = head;
  for (const core::PrefetchPlan& plan : response.plans) {
    char item[64];
    std::snprintf(item, sizeof item, "%u:%+lld:%d;", plan.pc,
                  static_cast<long long>(plan.distance_bytes),
                  static_cast<int>(plan.hint));
    line += item;
  }
  return line;
}

bool plans_equal(const std::vector<core::PrefetchPlan>& a,
                 const std::vector<core::PrefetchPlan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pc != b[i].pc || a[i].distance_bytes != b[i].distance_bytes ||
        a[i].hint != b[i].hint) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Family> make_families(int hot, int cold) {
  std::vector<Family> families;
  const int total = std::max(hot, 0) + std::max(cold, 0);
  families.reserve(static_cast<std::size_t>(total));
  for (int f = 0; f < total; ++f) {
    Family family;
    family.id = static_cast<std::uint64_t>(f);
    const Pc base = family_base_pc(family.id);
    family.signature = {{base, 0.5}, {base + 1, 0.3}, {base + 2, 0.2}};

    // Per-family sub-profile: a streaming load over a footprint the L1
    // cannot hold (the delinquent load the solve targets) plus a hot
    // buffer that fits (and should produce no plan). Disjoint address
    // spaces per family keep solves independent.
    workloads::Program& p = family.program;
    p.name = "serve-family-" + std::to_string(f);
    p.seed = 0x5E47E + family.id;
    workloads::StaticInst stream, hot_buf;
    stream.pc = base;
    stream.pattern =
        workloads::StreamPattern{family.id << 36, 64, 1 << 20};
    hot_buf.pc = base + 1;
    hot_buf.pattern =
        workloads::HotBufferPattern{(family.id << 36) + (1 << 30), 64,
                                    16 << 10};
    p.loops.push_back(workloads::Loop{{stream, hot_buf}, 8192});
    p.outer_reps = 1;
    families.push_back(std::move(family));
  }
  return families;
}

AdvisoryService::Solver make_engine_solver(const std::vector<Family>& families,
                                           const sim::MachineConfig& machine,
                                           const engine::Executor*) {
  // The solver runs inside Executor workers: it reads only the immutable
  // family table and machine config.
  return [&families, machine](const PlanRequest& request,
                              const engine::CancelToken* cancel)
             -> std::vector<core::PrefetchPlan> {
    const std::size_t index =
        static_cast<std::size_t>(request.family) % families.size();
    engine::EngineContext ctx;
    ctx.cancel = cancel;
    core::OptimizationReport report = engine::run_optimize(
        families[index].program, machine, core::OptimizerOptions{}, ctx);
    return std::move(report.plans);
  };
}

AdvisoryService::Solver make_synthetic_solver(
    const std::vector<Family>& families) {
  return [&families](const PlanRequest& request,
                     const engine::CancelToken* cancel)
             -> std::vector<core::PrefetchPlan> {
    if (cancel != nullptr && cancel->requested()) throw engine::Cancelled();
    const std::size_t index =
        static_cast<std::size_t>(request.family) % families.size();
    core::PrefetchPlan plan;
    plan.pc = family_base_pc(families[index].id);
    plan.distance_bytes =
        static_cast<std::int64_t>(64 * (families[index].id + 1));
    plan.hint = workloads::PrefetchHint::T0;
    return {plan};
  };
}

ServeRunResult run_serve_sim(const TrafficConfig& traffic,
                             const ServiceOptions& options,
                             const AdvisoryService::Solver& solver,
                             const engine::Executor* executor) {
  const std::vector<Family> families =
      make_families(traffic.hot_families, traffic.cold_families);
  AdvisoryService service(options, solver, executor);

  Rng arrivals(traffic.seed);
  std::vector<PlanResponse> responses;
  std::uint64_t next_id = 1;
  for (std::uint64_t tick = 0; tick < traffic.ticks; ++tick) {
    service.step(tick, responses);
    for (int core = 0; core < traffic.cores; ++core) {
      if (!arrivals.chance(traffic.request_rate)) continue;
      std::uint64_t family;
      if (traffic.hot_families > 0 &&
          arrivals.chance(traffic.hot_fraction)) {
        family = arrivals.next(
            static_cast<std::uint64_t>(traffic.hot_families));
      } else {
        family = static_cast<std::uint64_t>(traffic.hot_families) +
                 arrivals.next(static_cast<std::uint64_t>(
                     std::max(traffic.cold_families, 1)));
      }
      PlanRequest request;
      request.id = next_id++;
      request.core = core;
      request.family = family;
      request.signature = families[family % families.size()].signature;
      service.submit(request, tick, responses);
    }
  }
  const std::uint64_t final_tick = service.drain(traffic.ticks, responses);

  ServeRunResult result;
  result.stats = service.stats();
  result.responses = responses.size();
  result.final_tick = final_tick;
  for (int s = 0; s < service.shards(); ++s) {
    if (service.shard_state(s) == runtime::BreakerState::Open) {
      ++result.shards_open;
    }
  }
  result.acked = service.acked_fingerprints();

  std::vector<std::uint64_t> admitted_latency;
  std::unordered_map<int, std::vector<core::PrefetchPlan>> last_good;
  std::uint64_t degraded = 0;
  for (const PlanResponse& response : responses) {
    result.digest = chain_crc(result.digest, render_response(response));
    if (response.deadline_missed && !response.degraded()) {
      result.no_stale_fresh = false;
    }
    switch (response.kind) {
      case AnswerKind::Fresh:
      case AnswerKind::CacheHit:
        admitted_latency.push_back(response.latency_ticks);
        last_good[response.core] = response.plans;
        break;
      case AnswerKind::LastKnownGood:
        ++degraded;
        // A LKG answer must be exactly this core's previous good answer.
        if (response.cause == DegradeCause::None ||
            last_good.find(response.core) == last_good.end() ||
            !plans_equal(response.plans, last_good[response.core])) {
          result.degraded_safe = false;
        }
        break;
      case AnswerKind::NoPrefetch:
        ++degraded;
        // No-prefetch is the empty (guaranteed-safe) plan set, by definition.
        if (response.cause == DegradeCause::None || !response.plans.empty()) {
          result.degraded_safe = false;
        }
        break;
    }
  }

  result.queue_bounded =
      result.stats.max_queue_depth <= options.queue_capacity;
  if (result.stats.stale_fresh_violations > 0) result.no_stale_fresh = false;

  if (!admitted_latency.empty()) {
    std::sort(admitted_latency.begin(), admitted_latency.end());
    const std::size_t n = admitted_latency.size();
    result.p50_admitted = static_cast<double>(admitted_latency[n / 2]);
    result.p99_admitted =
        static_cast<double>(admitted_latency[std::min(n - 1, n * 99 / 100)]);
  }
  const double submitted =
      std::max<double>(static_cast<double>(result.stats.submitted), 1.0);
  result.shed_rate =
      static_cast<double>(result.stats.shed_queue_full +
                          result.stats.shed_infeasible +
                          result.stats.shard_down +
                          result.stats.cache_faults) /
      submitted;
  result.deadline_miss_rate =
      static_cast<double>(result.stats.deadline_missed) / submitted;
  result.hit_rate =
      static_cast<double>(result.stats.cache_hits) / submitted;
  result.degraded_rate = static_cast<double>(degraded) / submitted;
  return result;
}

std::string config_fingerprint(const sim::MachineConfig& machine,
                               const core::OptimizerOptions& knobs) {
  // A stable digest over the state that decides whether a cached plan is
  // still valid: the cache hierarchy the solves modeled and the optimizer
  // knobs that shaped them. Everything is folded as raw bits (doubles via
  // memcpy) so the token is byte-stable across runs and platforms with the
  // same config.
  std::uint64_t h = 0xF17E9A11DC0FFEEull;
  const auto fold = [&h](std::uint64_t v) { h = workloads::mix64(h ^ v); };
  const auto fold_double = [&fold](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    fold(bits);
  };
  for (const char c : machine.name) {
    fold(static_cast<unsigned char>(c));
  }
  fold(machine.l1.size_bytes);
  fold(machine.l1.associativity);
  fold(machine.l2.size_bytes);
  fold(machine.l2.associativity);
  fold(machine.llc.size_bytes);
  fold(machine.llc.associativity);
  fold(machine.l1_latency);
  fold(machine.l2_latency);
  fold(machine.llc_latency);
  fold(machine.dram_latency);
  fold(machine.oo_overlap_cycles);
  fold(machine.prefetch_inst_cost);
  fold_double(machine.freq_ghz);
  fold_double(machine.dram_bytes_per_cycle);
  fold(knobs.enable_non_temporal ? 1 : 0);
  fold(knobs.profile_max_refs);
  fold_double(knobs.assumed_cycles_per_memop);
  fold_double(knobs.measured_cycles_per_memop);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

FairnessRunResult run_fairness_sim(const FairnessTraffic& traffic,
                                   const ServiceOptions& options,
                                   const AdvisoryService::Solver& solver,
                                   const engine::Executor* executor) {
  const std::vector<Family> families =
      make_families(traffic.hot_families, traffic.cold_families);
  AdvisoryService service(options, solver, executor);
  const bool outbox =
      options.fairness.enabled && options.fairness.outbox_capacity > 0;

  const int chatty_core = traffic.chatty ? traffic.cores : -1;
  const int slow_core =
      traffic.slow_consumer ? traffic.cores + (traffic.chatty ? 1 : 0) : -1;
  const int total_cores = traffic.cores + (traffic.chatty ? 1 : 0) +
                          (traffic.slow_consumer ? 1 : 0);

  // Per-core arrival streams: adding an adversary must not perturb a
  // well-behaved core's request sequence, or the solo comparison would be
  // comparing different workloads.
  std::vector<Rng> arrivals;
  arrivals.reserve(static_cast<std::size_t>(total_cores));
  for (int core = 0; core < total_cores; ++core) {
    arrivals.emplace_back(workloads::mix64(
        traffic.seed ^ (0xFA12D00Dull + static_cast<std::uint64_t>(core))));
  }

  std::vector<PlanResponse> responses;  // collection order
  std::vector<std::uint64_t> submitted_per_core(
      static_cast<std::size_t>(total_cores), 0);
  std::uint64_t next_id = 1;
  for (std::uint64_t tick = 0; tick < traffic.ticks; ++tick) {
    service.step(tick, responses);
    for (int core = 0; core < total_cores; ++core) {
      double rate = traffic.base_rate;
      if (core == chatty_core) rate *= traffic.chatty_multiplier;
      Rng& rng = arrivals[static_cast<std::size_t>(core)];
      // Rates above 1/tick submit floor(rate) requests plus a Bernoulli
      // remainder — the chatty core really is 100×, not clamped to 1.
      int n = static_cast<int>(rate);
      const double frac = rate - static_cast<double>(n);
      if (frac > 0.0 && rng.chance(frac)) ++n;
      for (int r = 0; r < n; ++r) {
        std::uint64_t family;
        if (core == chatty_core || traffic.hot_families == 0 ||
            !rng.chance(traffic.hot_fraction)) {
          // The chatty core requests cold families only: every request is
          // a solve, the most queue pressure a tenant can generate.
          family = static_cast<std::uint64_t>(traffic.hot_families) +
                   rng.next(static_cast<std::uint64_t>(
                       std::max(traffic.cold_families, 1)));
        } else {
          family =
              rng.next(static_cast<std::uint64_t>(traffic.hot_families));
        }
        PlanRequest request;
        request.id = next_id++;
        request.core = core;
        request.family = family;
        request.signature = families[family % families.size()].signature;
        service.submit(request, tick, responses);
        ++submitted_per_core[static_cast<std::size_t>(core)];
      }
    }
    if (outbox) {
      for (int core = 0; core < total_cores; ++core) {
        const std::size_t max =
            core == slow_core ? traffic.slow_collect_per_tick
                              : static_cast<std::size_t>(-1);
        if (max > 0) service.collect(core, max, responses);
      }
    }
  }
  FairnessRunResult result;
  result.final_tick = service.drain(traffic.ticks, responses);
  if (outbox) {
    // Final drain of every outbox — including the slow consumer's held
    // responses, so the digest covers every answer the service produced.
    for (int core = 0; core < total_cores; ++core) {
      service.collect(core, static_cast<std::size_t>(-1), responses);
    }
  }

  result.stats = service.stats();
  result.responses = responses.size();
  result.per_core.resize(static_cast<std::size_t>(total_cores));
  std::vector<std::vector<std::uint64_t>> latencies(
      static_cast<std::size_t>(total_cores));
  std::unordered_map<int, std::vector<core::PrefetchPlan>> last_good;
  for (const PlanResponse& response : responses) {
    result.digest = chain_crc(result.digest, render_response(response));
    if (response.deadline_missed && !response.degraded()) {
      result.no_stale_fresh = false;
    }
    const std::size_t core = static_cast<std::size_t>(response.core);
    CoreMetrics& metrics = result.per_core[core];
    if (response.cause == DegradeCause::QuotaExceeded) ++metrics.quota_shed;
    switch (response.kind) {
      case AnswerKind::Fresh:
      case AnswerKind::CacheHit:
        ++metrics.admitted;
        latencies[core].push_back(response.latency_ticks);
        last_good[response.core] = response.plans;
        break;
      case AnswerKind::LastKnownGood:
        ++metrics.degraded;
        if (response.cause == DegradeCause::None ||
            last_good.find(response.core) == last_good.end() ||
            !plans_equal(response.plans, last_good[response.core])) {
          result.degraded_safe = false;
        }
        break;
      case AnswerKind::NoPrefetch:
        ++metrics.degraded;
        if (response.cause == DegradeCause::None || !response.plans.empty()) {
          result.degraded_safe = false;
        }
        break;
    }
  }
  for (int core = 0; core < total_cores; ++core) {
    CoreMetrics& metrics = result.per_core[static_cast<std::size_t>(core)];
    metrics.submitted = submitted_per_core[static_cast<std::size_t>(core)];
    std::vector<std::uint64_t>& lat =
        latencies[static_cast<std::size_t>(core)];
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      const std::size_t n = lat.size();
      metrics.p50 = static_cast<double>(lat[n / 2]);
      metrics.p99 =
          static_cast<double>(lat[std::min(n - 1, n * 99 / 100)]);
    }
    metrics.degraded_rate =
        static_cast<double>(metrics.degraded) /
        std::max<double>(static_cast<double>(metrics.submitted), 1.0);
  }
  result.queue_bounded =
      result.stats.max_queue_depth <= options.queue_capacity;
  if (result.stats.stale_fresh_violations > 0) result.no_stale_fresh = false;
  return result;
}

std::string ServeCrashReport::to_string() const {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "trials=%d (torn=%d tmp=%d) acked=%" PRIu64 " recovered=%" PRIu64
      " quarantined=%" PRIu64 " lost=%" PRIu64 " alien=%" PRIu64
      " recovery_failures=%" PRIu64 " append_failures=%" PRIu64 " -> %s",
      trials, torn_trials, tmp_trials, acked_total, recovered_total,
      quarantined, lost_acked, alien_entries, recovery_failures,
      append_failures, ok() ? "OK" : "FAIL");
  return buf;
}

ServeCrashReport serve_crash_check(std::uint64_t seed, int trials,
                                   const std::string& scratch_dir) {
  ServeCrashReport report;
  ensure_dir(scratch_dir);

  const std::vector<Family> families = make_families(2, 24);
  const AdvisoryService::Solver solver = make_synthetic_solver(families);

  for (int trial = 0; trial < trials; ++trial) {
    ++report.trials;
    const std::string dir =
        scratch_dir + "/trial-" + std::to_string(trial);
    ensure_dir(dir);

    TrafficConfig traffic;
    traffic.cores = 8;
    traffic.ticks = 128;
    traffic.request_rate = 0.25;
    traffic.hot_fraction = 0.25;
    traffic.hot_families = 2;
    traffic.cold_families = 24;
    traffic.seed = workloads::mix64(seed + 0x9E37 * trial + 1);

    ServiceOptions options;
    options.shards = 2;
    options.cache.capacity = 64;  // no eviction: acked entries stay resident
    options.queue_capacity = 128;
    options.solve_slots = 4;
    options.solve_cost_ticks = 4;
    options.deadline_ticks = 512;
    options.journal_dir = dir;
    options.seed = workloads::mix64(seed + 0xC0DE * trial + 7);

    ServeRunResult run = run_serve_sim(traffic, options, solver, nullptr);
    // Dedup by fingerprint: two concurrent misses of the same family both
    // solve and both ack (the journal holds both records; the loader's
    // signature match collapses them), so unique identities are the
    // comparable ground truth.
    std::unordered_set<std::uint64_t> acked(run.acked.begin(),
                                            run.acked.end());
    report.acked_total += acked.size();

    // Crash. The service's writes are append + fsync, so the only torn
    // state a real crash leaves is (a) a partial final record — an append
    // that never returned, hence never acked — or (b) a stray checkpoint
    // temp file. Inflict one of each shape on shard 0, alternating.
    const std::string victim = dir + "/shard-0.journal";
    const bool torn = trial % 2 == 0;
    if (torn) {
      ++report.torn_trials;
      runtime::PlanCache::Entry in_flight;
      in_flight.signature = {{9999, 1.0}};
      in_flight.plans = {{9999, 64, workloads::PrefetchHint::T0}};
      const std::string record =
          runtime::PlanCache::journal_record(in_flight);
      Expected<std::string> old = support::read_file(victim);
      if (old.has_value()) {
        // Half the record: the bytes a crash mid-write leaves behind.
        std::string text = old.value();
        text.append(record.substr(0, record.size() / 2));
        std::FILE* f = std::fopen(victim.c_str(), "wb");
        if (f != nullptr) {
          std::fwrite(text.data(), 1, text.size(), f);
          std::fclose(f);
        }
      }
    } else {
      ++report.tmp_trials;
      std::FILE* f = std::fopen((victim + ".tmp").c_str(), "wb");
      if (f != nullptr) {
        std::fputs("{\"torn\": \"checkpoint\"", f);
        std::fclose(f);
      }
    }

    // Restart: recover every shard (load + quarantine + compact, the
    // ShardJournal::recover path), audit acked-vs-recovered.
    std::unordered_set<std::uint64_t> recovered;
    for (int s = 0; s < options.shards; ++s) {
      const std::string path =
          dir + "/shard-" + std::to_string(s) + ".journal";
      ShardJournal journal;
      Expected<runtime::PlanCache::LoadReport> loaded =
          journal.recover(path, options.cache);
      if (!loaded.has_value()) {
        ++report.recovery_failures;
        continue;
      }
      report.quarantined += loaded.value().quarantined;
      for (const runtime::PlanCache::Entry& entry :
           loaded.value().cache.entries()) {
        const std::uint64_t fp = signature_fingerprint(entry.signature);
        recovered.insert(fp);
        if (acked.find(fp) == acked.end()) ++report.alien_entries;
      }

      // The recovered journal must accept new appends (the restarted
      // service keeps acking), and the appended entry must itself recover.
      runtime::PlanCache::Entry post_crash;
      post_crash.signature = {{static_cast<Pc>(7000 + s), 1.0}};
      post_crash.plans = {
          {static_cast<Pc>(7000 + s), 128, workloads::PrefetchHint::T0}};
      if (!journal.append(post_crash).ok()) {
        ++report.append_failures;
        continue;
      }
      Expected<runtime::PlanCache::LoadReport> reloaded =
          runtime::PlanCache::load_file(path, options.cache);
      if (!reloaded.has_value() ||
          reloaded.value().cache.size() != loaded.value().cache.size() + 1) {
        ++report.append_failures;
      }
    }
    report.recovered_total += recovered.size();
    for (const std::uint64_t fp : acked) {
      if (recovered.find(fp) == recovered.end()) ++report.lost_acked;
    }
  }
  return report;
}

std::string PoisonReport::to_string() const {
  char buf[384];
  std::snprintf(
      buf, sizeof buf,
      "trials=%d (bitflip=%d stale_fp=%d truncated=%d) warm_loaded=%" PRIu64
      " warm_quarantined=%" PRIu64 " files_rejected=%" PRIu64
      " stale_fresh=%" PRIu64 " alien=%" PRIu64 " gate_failures=%" PRIu64
      " acked_then_lost=%" PRIu64 " recovery_failures=%" PRIu64 " -> %s",
      trials, bitflip_trials, stale_fp_trials, truncated_trials,
      warm_entries_loaded, warm_entries_quarantined, warm_files_rejected,
      stale_fresh, alien_served, gate_failures, acked_then_lost,
      recovery_failures, ok() ? "OK" : "FAIL");
  return buf;
}

PoisonReport serve_poison_check(std::uint64_t seed, int trials,
                                const std::string& scratch_dir) {
  PoisonReport report;
  ensure_dir(scratch_dir);

  const std::vector<Family> families = make_families(2, 24);
  const AdvisoryService::Solver solver = make_synthetic_solver(families);
  // Any stable token works as the "current config" identity; the check is
  // that a header carrying anything else is refused wholesale.
  const std::string fp =
      config_fingerprint(sim::amd_phenom_ii(), core::OptimizerOptions{});

  const auto write_bytes = [](const std::string& path,
                              const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return true;
  };

  for (int trial = 0; trial < trials; ++trial) {
    ++report.trials;
    Rng damage(workloads::mix64(seed ^ (0xB0150Dull + trial)));
    const std::string base = scratch_dir + "/trial-" + std::to_string(trial);
    const std::string warm_dir = base + "/warm";
    const std::string relaunch_dir = base + "/relaunch";
    ensure_dir(base);
    ensure_dir(warm_dir);
    ensure_dir(relaunch_dir);

    TrafficConfig traffic;
    traffic.cores = 8;
    traffic.ticks = 128;
    traffic.request_rate = 0.25;
    traffic.hot_fraction = 0.25;
    traffic.hot_families = 2;
    traffic.cold_families = 24;
    traffic.seed = workloads::mix64(seed + 0x9E37 * trial + 11);

    ServiceOptions options;
    options.shards = 2;
    options.cache.capacity = 64;
    options.queue_capacity = 128;
    options.solve_slots = 4;
    options.solve_cost_ticks = 4;
    options.deadline_ticks = 512;
    options.journal_dir = warm_dir;
    options.config_fingerprint = fp;
    options.seed = workloads::mix64(seed + 0xC0DE * trial + 17);

    // Phase 1: a clean journaling run — its shard files are tomorrow's
    // warm-start directory, and their entries are the ground truth for the
    // alien-plan audit.
    run_serve_sim(traffic, options, solver, nullptr);
    std::unordered_map<std::uint64_t, std::vector<core::PrefetchPlan>> truth;
    for (int s = 0; s < options.shards; ++s) {
      const std::string path =
          warm_dir + "/shard-" + std::to_string(s) + ".journal";
      Expected<runtime::PlanCache::LoadReport> loaded =
          runtime::PlanCache::load_file(path, options.cache);
      if (!loaded.has_value()) continue;
      for (const runtime::PlanCache::Entry& entry :
           loaded.value().cache.entries()) {
        truth[signature_fingerprint(entry.signature)] = entry.plans;
      }
    }

    // Phase 2: poison one shard file, rotating through the three damage
    // shapes a hostile or rotted cache directory produces.
    const int victim_shard =
        static_cast<int>(damage.next(static_cast<std::uint64_t>(
            std::max(options.shards, 1))));
    const std::string victim =
        warm_dir + "/shard-" + std::to_string(victim_shard) + ".journal";
    Expected<std::string> bytes = support::read_file(victim);
    if (bytes.has_value() && !bytes.value().empty()) {
      std::string text = bytes.value();
      switch (trial % 3) {
        case 0: {
          ++report.bitflip_trials;
          const int flips = 1 + static_cast<int>(damage.next(4));
          for (int f = 0; f < flips; ++f) {
            const std::size_t byte = static_cast<std::size_t>(
                damage.next(static_cast<std::uint64_t>(text.size())));
            text[byte] = static_cast<char>(
                static_cast<unsigned char>(text[byte]) ^
                (1u << damage.next(8)));
          }
          break;
        }
        case 1: {
          ++report.stale_fp_trials;
          // Replace the header with one carrying a foreign fingerprint;
          // every record after it is intact and CRC-clean — only the
          // fingerprint check can refuse this file.
          std::size_t eol = text.find('\n');
          if (eol == std::string::npos) eol = text.size();
          text = runtime::PlanCache::journal_header(0, "00deadc0de5tale0") +
                 text.substr(std::min(eol + 1, text.size()));
          break;
        }
        default: {
          ++report.truncated_trials;
          text.resize(static_cast<std::size_t>(damage.next(
              static_cast<std::uint64_t>(text.size()))));
          break;
        }
      }
      write_bytes(victim, text);
    }

    // Phase 3: restart with --warm-start pointing at the poisoned
    // directory, journaling to a fresh one. The daemon must come up, serve
    // the run inside its gates, and never emit a plan the clean run did
    // not produce.
    std::vector<std::uint64_t> acked;
    {
      ServiceOptions relaunch = options;
      relaunch.journal_dir = relaunch_dir;
      relaunch.warm_start_dir = warm_dir;
      relaunch.seed = workloads::mix64(seed + 0xFEED * trial + 29);
      AdvisoryService service(relaunch, solver, nullptr);

      report.warm_entries_loaded += service.stats().warm_entries_loaded;
      report.warm_entries_quarantined +=
          service.stats().warm_entries_quarantined;
      report.warm_files_rejected += service.stats().warm_files_rejected;

      Rng arrivals(workloads::mix64(seed + 0xA11CE * trial + 31));
      std::vector<PlanResponse> responses;
      std::uint64_t next_id = 1;
      for (std::uint64_t tick = 0; tick < traffic.ticks; ++tick) {
        service.step(tick, responses);
        for (int core = 0; core < traffic.cores; ++core) {
          if (!arrivals.chance(traffic.request_rate)) continue;
          std::uint64_t family;
          if (traffic.hot_families > 0 &&
              arrivals.chance(traffic.hot_fraction)) {
            family = arrivals.next(
                static_cast<std::uint64_t>(traffic.hot_families));
          } else {
            family = static_cast<std::uint64_t>(traffic.hot_families) +
                     arrivals.next(static_cast<std::uint64_t>(
                         std::max(traffic.cold_families, 1)));
          }
          PlanRequest request;
          request.id = next_id++;
          request.core = core;
          request.family = family;
          request.signature = families[family % families.size()].signature;
          service.submit(request, tick, responses);
        }
      }
      service.drain(traffic.ticks, responses);

      if (service.stats().stale_fresh_violations > 0) {
        report.stale_fresh += service.stats().stale_fresh_violations;
      }
      if (service.stats().max_queue_depth > relaunch.queue_capacity) {
        ++report.gate_failures;
      }
      for (const PlanResponse& response : responses) {
        if (response.deadline_missed && !response.degraded()) {
          ++report.gate_failures;
        }
      }
      // Alien audit over the warmed caches directly: every entry the
      // service may serve must match the clean run's plans for that
      // signature. A poisoned record passing CRC and sanity yet carrying
      // different plans would land here; entries the clean run never held
      // are run-2 fresh solves (the same deterministic solver) and safe.
      for (int s = 0; s < service.shards(); ++s) {
        for (const runtime::PlanCache::Entry& entry :
             service.shard_cache(s).entries()) {
          const auto it = truth.find(signature_fingerprint(entry.signature));
          if (it != truth.end() && !plans_equal(entry.plans, it->second)) {
            ++report.alien_served;
          }
        }
      }
      acked = service.acked_fingerprints();
    }

    // Phase 4: the relaunched run's own acks must be durable in the new
    // directory — poison in the warm dir cannot leak forward.
    std::unordered_set<std::uint64_t> recovered;
    for (int s = 0; s < options.shards; ++s) {
      const std::string path =
          relaunch_dir + "/shard-" + std::to_string(s) + ".journal";
      ShardJournal journal;
      Expected<runtime::PlanCache::LoadReport> loaded =
          journal.recover(path, options.cache, fp);
      if (!loaded.has_value()) {
        ++report.recovery_failures;
        continue;
      }
      for (const runtime::PlanCache::Entry& entry :
           loaded.value().cache.entries()) {
        recovered.insert(signature_fingerprint(entry.signature));
      }
    }
    std::unordered_set<std::uint64_t> acked_set(acked.begin(), acked.end());
    for (const std::uint64_t item : acked_set) {
      if (recovered.find(item) == recovered.end()) ++report.acked_then_lost;
    }
  }
  return report;
}

}  // namespace re::serve
