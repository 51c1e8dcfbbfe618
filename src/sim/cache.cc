#include "sim/cache.hh"

#include <cassert>
#include <stdexcept>

namespace re::sim {

namespace {
bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geometry)
    : sets_(geometry.num_sets()), ways_(geometry.associativity) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("cache geometry must be non-empty");
  }
  if (!is_pow2(sets_)) {
    throw std::invalid_argument(
        "cache set count must be a power of two (adjust associativity)");
  }
  tags_.assign(sets_ * ways_, kEmptyTag);
  stamps_.assign(sets_ * ways_, 0);
  flags_.assign(sets_ * ways_, 0);
}

std::uint32_t SetAssocCache::find(std::uint64_t base, Addr line) const {
  // Lines are unique within a set, so selecting the last match is exact.
  const Addr* tags = &tags_[base];
  std::uint32_t way = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) way = tags[w] == line ? w : way;
  return way;
}

bool SetAssocCache::access(Addr line, bool demand) {
  const std::uint64_t base = set_base(line);
  const std::uint32_t way = find(base, line);
  if (way == ways_) return false;
  stamps_[base + way] = ++tick_;
  flags_[base + way] |= demand ? kTouched : 0;
  return true;
}

bool SetAssocCache::contains(Addr line) const {
  return find(set_base(line), line) != ways_;
}

std::optional<Eviction> SetAssocCache::fill(Addr line, FillOrigin origin) {
  // Contract: the caller has established that `line` is not resident (all
  // call sites probe with access()/contains() first). A duplicate fill
  // would corrupt the set, so this is asserted; the check rides along the
  // victim scan instead of costing a second one.
  const std::uint64_t base = set_base(line);
  const Addr* tags = &tags_[base];
  const std::uint64_t* stamps = &stamps_[base];
  [[maybe_unused]] bool resident = tags[0] == line;
  // The first minimum stamp: the first empty way (stamp 0), else the LRU
  // line.
  std::uint32_t victim = 0;
  std::uint64_t oldest = stamps[0];
  for (std::uint32_t w = 1; w < ways_; ++w) {
    resident |= tags[w] == line;
    const bool older = stamps[w] < oldest;
    victim = older ? w : victim;
    oldest = older ? stamps[w] : oldest;
  }
  assert(line != kEmptyTag && !resident && "duplicate cache fill");

  const std::uint64_t slot = base + victim;
  std::optional<Eviction> evicted;
  if (oldest != 0) {
    const std::uint8_t flags = flags_[slot];
    evicted = Eviction{tags_[slot],
                       static_cast<FillOrigin>(flags & kOriginMask),
                       (flags & kTouched) != 0, (flags & kDirty) != 0};
  }
  tags_[slot] = line;
  stamps_[slot] = ++tick_;
  flags_[slot] = static_cast<std::uint8_t>(origin);
  return evicted;
}

bool SetAssocCache::mark_dirty(Addr line) {
  const std::uint64_t base = set_base(line);
  const std::uint32_t way = find(base, line);
  if (way == ways_) return false;
  flags_[base + way] |= kDirty;
  return true;
}

}  // namespace re::sim
