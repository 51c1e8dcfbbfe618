// The benchmark's three workloads: `suite`, `mix` and `serve`.
//
// Each workload is set up once from its seed, then runs timed passes. An
// untraced pass calls the repository's top-level entry point for the
// workload. A traced `serve` pass calls the same entry point with its solver
// wrapped in a span. Traced `suite` and `mix` passes instead run the
// benchmark's copy of the entry point, one call level down, so spans can sit
// at each layer boundary. Both kinds must produce identical simulated
// results, which the output checks enforce pass by pass.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hh"
#include "trace.hh"

namespace perfbench {

/// What the checks found in one pass, plus the pass's deterministic
/// outcomes (simulated or virtual-time figures and modelled counters),
/// which are identical on every pass of a seed, traced or not.
struct PassReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> outcomes;
  /// Units of work the pass completed, the numerator of work_per_s:
  /// benchmark evaluations (suite), simulated memory references (mix) or
  /// responses (serve).
  double work = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Operations one pass attempts: benchmark evaluations, mixes, requests.
  virtual std::uint64_t ops_per_pass() const = 0;

  /// One timed pass; `tracer` null means untraced.
  virtual void run_pass(Tracer* tracer) = 0;

  /// Seconds each part of the last pass took, one entry per part in a fixed
  /// order; empty when the pass is timed as a whole.
  virtual std::vector<double> part_seconds() const { return {}; }

  /// Judge the last pass (outside the timed region).
  virtual PassReport check_pass(Checker& checker) = 0;

  /// Traced runs only, after the passes: time the layers below what a pass
  /// can see (cursor, optimize stages) on this workload's programs. Adds
  /// work counts to `counters`.
  virtual void probe(Tracer& tracer,
                     std::map<std::string, double>& counters) = 0;
};

/// Construct and set up workload `name` for `seed`, with the golden plan
/// snapshots read from `golden_dir`; throws on an unknown name or
/// unreadable inputs.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& golden_dir);

}  // namespace perfbench
