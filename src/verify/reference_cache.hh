// Reference set-associative cache: the test oracle for sim::SetAssocCache.
//
// The same LRU cache in its plainest form: an array of per-way records
// (tag, valid bit, LRU timestamp, origin, touched and dirty flags), a tag
// search that stops at the first match, and a victim search that takes the
// first invalid way, else the way with the oldest timestamp. The simulator's
// cache stores its sets as arrays and searches them without branches; the
// differential test (tests/verify/reference_cache_test.cc) drives both with
// the same random operations and requires every return value and every
// Eviction field to match, the way ExactLruModel backs StatStack.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "support/types.hh"

namespace re::verify {

class ReferenceCache {
 public:
  explicit ReferenceCache(const sim::CacheGeometry& geometry);

  /// Demand or prefetch probe. A hit refreshes recency; a demand hit also
  /// marks the line as touched. Returns true on hit.
  bool access(Addr line, bool demand);

  /// Mark a resident line dirty; no-op if absent. Returns true if found.
  bool mark_dirty(Addr line);

  /// Probe without changing any state.
  bool contains(Addr line) const;

  /// Insert a line (caller established it missed). Returns the eviction, if
  /// a valid line was displaced.
  std::optional<sim::Eviction> fill(Addr line, sim::FillOrigin origin);

 private:
  struct Way {
    Addr tag = 0;
    std::uint64_t last_used = 0;
    sim::FillOrigin origin = sim::FillOrigin::Demand;
    bool valid = false;
    bool demand_touched = false;
    bool dirty = false;
  };

  std::uint64_t set_of(Addr line) const { return line & (sets_ - 1); }

  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_storage_;  // sets_ * ways_, row-major by set

  Way* set_begin(std::uint64_t set) { return &ways_storage_[set * ways_]; }
  const Way* set_begin(std::uint64_t set) const {
    return &ways_storage_[set * ways_];
  }
};

}  // namespace re::verify
