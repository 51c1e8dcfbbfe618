// Set-associative cache with true-LRU replacement and prefetch/NT-aware
// fill control.
//
// Tracks, per line, whether it was installed by a prefetch and whether it has
// been touched by a demand access since — the basis of the useless-prefetch
// accounting behind the paper's off-chip traffic results.
//
// Each set is held in contiguous arrays: tags, LRU stamps and one flag byte
// per way. An empty way holds tag kEmptyTag and stamp 0; a resident line
// holds the stamp of its last use, which is >= 1. The tag match and the
// victim search scan the whole set without data-dependent branches, and the
// first minimum stamp is the first empty way if there is one, else the
// least recently used line.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/config.hh"
#include "support/types.hh"

namespace re::sim {

/// How a line came to be resident (for pollution/useless-fill accounting).
enum class FillOrigin : std::uint8_t {
  Demand,       // brought in by a demand load
  SwPrefetch,   // software prefetch (normal or NT)
  HwPrefetch,   // hardware prefetcher
};

/// Result of evicting a line.
struct Eviction {
  Addr line = 0;
  FillOrigin origin = FillOrigin::Demand;
  bool demand_touched = false;  // ever hit by a demand access while resident
  bool dirty = false;           // written while resident (needs writeback)
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geometry);

  /// Demand or prefetch probe. A hit refreshes recency; a demand hit also
  /// marks the line as touched. Returns true on hit.
  bool access(Addr line, bool demand);

  /// Mark a resident line dirty (store hit or dirty writeback from an
  /// upper level); no-op if absent. Returns true if the line was found.
  bool mark_dirty(Addr line);

  /// Probe without changing any state.
  bool contains(Addr line) const;

  /// Insert a line (caller established it missed). Returns the eviction, if
  /// a valid line was displaced.
  std::optional<Eviction> fill(Addr line, FillOrigin origin);

  std::uint64_t num_sets() const { return sets_; }
  std::uint32_t associativity() const { return ways_; }
  std::uint64_t size_bytes() const { return sets_ * ways_ * kLineSize; }

 private:
  static constexpr Addr kEmptyTag = ~Addr{0};  // line_of() never yields it
  // Flag byte: the FillOrigin in the low two bits, then the state bits.
  static constexpr std::uint8_t kOriginMask = 0x3;
  static constexpr std::uint8_t kTouched = 0x4;
  static constexpr std::uint8_t kDirty = 0x8;

  /// Index of the first way of `line`'s set in the arrays.
  std::uint64_t set_base(Addr line) const {
    return (line & (sets_ - 1)) * ways_;
  }
  /// Way of `line` in the set starting at `base`, or ways_ if absent.
  std::uint32_t find(std::uint64_t base, Addr line) const;

  std::uint64_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  // sets_ * ways_ entries each, row-major by set.
  std::vector<Addr> tags_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace re::sim
