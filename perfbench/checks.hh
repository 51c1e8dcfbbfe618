// Output checks: every operation a workload attempts is judged against
// values recorded from a known-good commit (perfbench/expected.txt), the
// repository's golden plan snapshots, or, for inputs the recorded table
// does not cover, the first result the run itself produced.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/insertion.hh"
#include "sim/config.hh"

namespace perfbench {

/// `key value...` lines; '#' starts a comment line.
class Expected {
 public:
  /// An unreadable file is an error (the benchmark cannot judge outputs).
  static Expected load(const std::string& path);

  const std::string* find(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Compares each operation's deterministic outcome with the expected value
/// for its key. A key absent from the table is held to the first value seen
/// in this run, so repeated passes (traced or not) must agree exactly.
class Checker {
 public:
  explicit Checker(const Expected& expected) : expected_(expected) {}

  /// "" when `value` is right; else a one-line reason. `required` keys must
  /// be in the expected table.
  std::string check(const std::string& key, const std::string& value,
                    bool required);

  /// Every key/value seen this run, for recording a new expected table.
  const std::map<std::string, std::string>& seen() const { return seen_; }

 private:
  const Expected& expected_;
  std::map<std::string, std::string> seen_;
};

/// SoftwareNT plans of the 12-benchmark suite on one machine, as committed
/// in tests/golden/plans_<machine>.golden.
class GoldenPlans {
 public:
  GoldenPlans(const std::string& golden_dir,
              const re::sim::MachineConfig& machine);

  /// "" when `plans` match the snapshot for `benchmark`; else the diff.
  std::string check(const std::string& benchmark,
                    const std::vector<re::core::PrefetchPlan>& plans) const;

 private:
  std::string machine_name_;
  std::map<std::string, std::string> blocks_;  // benchmark -> golden block
};

/// Lower-case alphanumeric slug of a machine name ("amd_phenom_ii").
std::string machine_slug(const re::sim::MachineConfig& machine);

}  // namespace perfbench
