// Golden-plan snapshots: the full pipeline's prefetch plans for the
// 12-benchmark suite, rendered in a stable text format and committed under
// tests/golden/. A plan change — a new distance, a hint flip, a load
// appearing or vanishing — shows up as a readable diff instead of silently
// shifting downstream performance numbers. Re-blessing is deliberate:
// `repf verify --bless` rewrites the snapshot after a reviewed change.
#pragma once

#include <string>
#include <vector>

#include "core/insertion.hh"
#include "sim/config.hh"
#include "sim/system.hh"

namespace re::engine {
class Executor;
}  // namespace re::engine

namespace re::verify {

struct GoldenEntry {
  std::string benchmark;
  std::vector<core::PrefetchPlan> plans;
};

/// Run the full optimization pipeline (default options, Reference inputs)
/// over the whole suite on `machine`, in Table I order. With an executor,
/// benchmarks fan out over its workers; entries stay in Table I order and
/// are byte-identical to the serial path at any worker count — this is the
/// oracle `repf verify --golden --jobs N` checks.
std::vector<GoldenEntry> compute_suite_plans(
    const sim::MachineConfig& machine,
    const engine::Executor* executor = nullptr);

/// Render entries in the golden format. Comment lines (leading '#') carry
/// the machine tag and the re-bless instructions; they are ignored by
/// comparison so they can evolve freely.
std::string render_golden(const std::vector<GoldenEntry>& entries,
                          const std::string& machine_name);

/// Snapshot file name for a machine: "plans_<machine>.golden".
std::string golden_filename(const std::string& machine_name);

/// Compare two renderings, ignoring comments and blank lines. Returns an
/// empty string when equivalent, else a line-oriented -expected/+actual
/// diff suitable for test failure messages.
std::string diff_golden(const std::string& expected, const std::string& actual);

// ---- co-run golden plans ------------------------------------------------
//
// Contention-adjusted snapshot: every suite benchmark runs as the victim on
// core 0 against three deterministic streaming aggressors, through the full
// co-run pipeline (analysis::run_corun), and its core-0 prefetch plan —
// solved with the composed effective-LLC-share knob — is snapshotted. A
// composition change that shifts any victim's plan shows up as a readable
// diff, exactly like the solo plans_<machine>.golden.

/// Compute the co-run victim plans for the whole suite on `machine`, in
/// Table I order. With an executor, benchmarks fan out over its workers;
/// output is byte-identical to the serial path at any worker count.
std::vector<GoldenEntry> compute_corun_suite_plans(
    const sim::MachineConfig& machine,
    const engine::Executor* executor = nullptr);

/// Render co-run entries (same body format as render_golden, with co-run
/// re-bless instructions in the comment header).
std::string render_corun_golden(const std::vector<GoldenEntry>& entries,
                                const std::string& machine_name);

/// Snapshot file name for a machine: "corun_plans_<machine>.golden".
std::string corun_golden_filename(const std::string& machine_name);

// ---- full-counter run golden ----------------------------------------------
//
// Every simulated counter behind Figs. 4-7: cycles, each CoreMemStats field
// and each DramStats field, for the five policies on every suite benchmark
// (Reference input) and for the Fig. 8 mix (cigar+gcc+lbm+libquantum) under
// Baseline, Hardware and SoftwareNT. The plan snapshots pin what the
// optimizer decides; this one pins what the timed simulator makes of it, so
// a simulator change that moves any traffic or useless-prefetch counter
// shows up as a readable diff.

/// Every field of a run: one whole-run line, then one line per app.
std::string render_run(const sim::RunResult& run);

/// Simulate the run snapshot for `machine` and render it in the golden
/// format. With an executor, benchmarks fan out over its workers; output is
/// byte-identical to the serial path at any worker count.
std::string render_runs_golden(const sim::MachineConfig& machine,
                               const engine::Executor* executor = nullptr);

/// Snapshot file name for a machine: "runs_<machine>.golden".
std::string runs_golden_filename(const std::string& machine_name);

}  // namespace re::verify
