#include "runtime/adaptive_controller.hh"

#include "engine/pipeline.hh"
#include "sim/memory_system.hh"

namespace re::runtime {

AdaptiveController::AdaptiveController(const workloads::Program& program,
                                       const sim::MachineConfig& machine,
                                       const AdaptiveOptions& options)
    : program_(&program),
      machine_(machine),
      opts_(options),
      sampler_(options.sampler, options.window_refs),
      detector_(options.phases),
      cache_(options.cache),
      governor_(options.governor, machine.dram_bytes_per_cycle) {}

void AdaptiveController::on_reference(int core, Pc pc, Addr addr, Cycle now,
                                      sim::MemorySystem& memory) {
  (void)core;
  std::optional<WindowProfile> window = sampler_.observe(pc, addr, now);
  if (window) {
    if (window_fault_injector_ != nullptr) {
      window->profile = window_fault_injector_->inject(window->profile);
    }
    close_window(*window, now, memory);
  }
}

void AdaptiveController::close_window(const WindowProfile& window, Cycle now,
                                      sim::MemorySystem& memory) {
  ++stats_.windows;

  // Online Δ: measured under the *current* plans, which is the only Δ an
  // online system can observe (the paper measures its Δ offline with
  // performance counters). The EWMA lives in engine/delta.hh — the one
  // shared Δ implementation.
  delta_ewma_.observe(window.cycles_per_memop());

  const core::PhaseSignature signature = core::normalize_signature(
      window.profile.pc_execution_counts, window.refs());
  const PhaseDecision decision = detector_.observe(signature);

  // Watchpoints survive window boundaries, but not phase boundaries: an
  // open watch belongs to the regime that armed it. Flush leftovers into
  // the OLD phase's profile (drop them if that profile is already capped).
  if (decision.raw_phase != last_raw_phase_) {
    if (last_raw_phase_ >= 0) {
      core::Profile& prev = phase_profiles_[last_raw_phase_];
      sampler_.flush_open_watches(
          prev.total_references < opts_.max_phase_profile_refs ? &prev
                                                               : nullptr);
    }
    last_raw_phase_ = decision.raw_phase;
  }

  // Grow the (bounded) sub-profile of the phase this window belongs to.
  core::Profile& accumulated = phase_profiles_[decision.raw_phase];
  if (accumulated.total_references < opts_.max_phase_profile_refs) {
    merge_window_profile(accumulated, window.profile);
  }

  // Plan management for the committed phase: hot-swap from the cache, or
  // re-optimize a novel phase once it has accumulated enough evidence.
  bool plans_dirty = false;
  if (!plans_valid_ || active_phase_ != decision.phase) {
    const core::PhaseSignature& centroid =
        detector_.centroid(decision.phase);
    if (const std::vector<core::PrefetchPlan>* cached =
            cache_.lookup(centroid)) {
      active_plans_ = *cached;
      active_phase_ = decision.phase;
      plans_valid_ = true;
      plan_cpm_ = 0.0;   // unknown — armed from measurement after settling
      plan_refs_ = 0;    // growth trigger stays off for cached plans
      ++stats_.hot_swaps;
      plans_dirty = true;
    } else if (phase_profiles_[decision.phase].total_references >=
               opts_.min_reoptimize_refs) {
      reoptimize(decision.phase);
      plans_dirty = true;
    }
    // else: evidence floor not reached — keep the previous phase's plans
    // active rather than guessing.
  }

  // Refinement: judge the active plans against evidence that postdates
  // them, but only after the Δ EWMA has settled into the new regime.
  if (plans_dirty) {
    windows_since_plan_change_ = 0;
  } else if (plans_valid_ && decision.phase == active_phase_ &&
             ++windows_since_plan_change_ >= opts_.refine_settle_windows &&
             phase_profiles_[active_phase_].total_references >=
                 opts_.min_reoptimize_refs) {
    const double delta_cpm = delta_ewma_.value();
    if (plan_cpm_ <= 0.0) {
      // Hot-swapped plans carry no Δ; arm the baseline from measurement.
      plan_cpm_ = delta_cpm;
    } else {
      bool diverged = false;
      if (opts_.refine_divergence_ratio > 1.0 && delta_cpm > 0.0) {
        const double ratio = delta_cpm > plan_cpm_ ? delta_cpm / plan_cpm_
                                                   : plan_cpm_ / delta_cpm;
        diverged = ratio >= opts_.refine_divergence_ratio;
      }
      const std::uint64_t acc_refs =
          phase_profiles_[active_phase_].total_references;
      const bool grown =
          opts_.refine_growth_factor > 1.0 && plan_refs_ > 0 &&
          acc_refs > plan_refs_ &&
          (static_cast<double>(acc_refs) >=
               opts_.refine_growth_factor * static_cast<double>(plan_refs_) ||
           acc_refs >= opts_.max_phase_profile_refs);
      if (diverged || grown) {
        reoptimize(active_phase_);
        ++stats_.refinements;
        plans_dirty = true;
        windows_since_plan_change_ = 0;
      }
    }
  }

  const GovernorMode mode = governor_.observe_window(
      dram_override_ != nullptr ? *dram_override_ : memory.dram_stats(), now);
  if (mode != applied_mode_) {
    applied_mode_ = mode;
    plans_dirty = true;
  }
  if (plans_dirty) rebuild_overlay();
}

void AdaptiveController::reoptimize(int phase) {
  core::OptimizerOptions options = opts_.optimizer;
  // The windowed EWMA enters as *measured* Δ: an explicitly configured
  // assumed Δ still outranks it (engine/delta.hh precedence), and with
  // neither set the engine falls back to the baseline simulation.
  options.measured_cycles_per_memop = delta_ewma_.value();
  const core::OptimizationReport report = engine::run_optimize_with_profile(
      *program_, phase_profiles_[phase], machine_, options);

  active_plans_ = report.plans;
  active_phase_ = phase;
  plans_valid_ = true;
  plan_cpm_ = report.cycles_per_memop;
  plan_refs_ = phase_profiles_[phase].total_references;
  windows_since_plan_change_ = 0;
  cache_.insert(detector_.centroid(phase), report.plans);
  ++stats_.reoptimizations;
}

void AdaptiveController::rebuild_overlay() {
  overlay_.plans.clear();
  overlay_.active = plans_valid_;
  if (!plans_valid_) return;  // warm-up: defer to the program's own plans
  if (applied_mode_ == GovernorMode::Suppress) return;  // active + empty
  for (const core::PrefetchPlan& plan : active_plans_) {
    workloads::PrefetchOp op;
    op.distance_bytes = plan.distance_bytes;
    op.hint = applied_mode_ == GovernorMode::Demote
                  ? workloads::PrefetchHint::NTA
                  : plan.hint;
    overlay_.plans.emplace(plan.pc, op);
  }
}

AdaptiveStats AdaptiveController::stats() const {
  AdaptiveStats out = stats_;
  out.phases = detector_.num_phases();
  out.phase_switches = detector_.switches();
  out.measured_cycles_per_memop = delta_ewma_.value();
  out.cache = cache_.stats();
  out.governor = governor_.stats();
  return out;
}

}  // namespace re::runtime
