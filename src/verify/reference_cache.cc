#include "verify/reference_cache.hh"

#include <cassert>
#include <stdexcept>

namespace re::verify {

namespace {
bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }
}  // namespace

ReferenceCache::ReferenceCache(const sim::CacheGeometry& geometry)
    : sets_(geometry.num_sets()), ways_(geometry.associativity) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("cache geometry must be non-empty");
  }
  if (!is_pow2(sets_)) {
    throw std::invalid_argument(
        "cache set count must be a power of two (adjust associativity)");
  }
  ways_storage_.resize(sets_ * ways_);
}

bool ReferenceCache::access(Addr line, bool demand) {
  Way* begin = set_begin(set_of(line));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = begin[w];
    if (way.valid && way.tag == line) {
      way.last_used = ++tick_;
      if (demand) way.demand_touched = true;
      return true;
    }
  }
  return false;
}

bool ReferenceCache::contains(Addr line) const {
  const Way* begin = set_begin(set_of(line));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (begin[w].valid && begin[w].tag == line) return true;
  }
  return false;
}

std::optional<sim::Eviction> ReferenceCache::fill(Addr line,
                                                  sim::FillOrigin origin) {
  Way* begin = set_begin(set_of(line));
  Way* victim = begin;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = begin[w];
    assert(!(way.valid && way.tag == line) && "duplicate cache fill");
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (way.last_used < oldest) {
      oldest = way.last_used;
      victim = &way;
    }
  }

  std::optional<sim::Eviction> evicted;
  if (victim->valid) {
    evicted = sim::Eviction{victim->tag, victim->origin,
                            victim->demand_touched, victim->dirty};
  }
  victim->tag = line;
  victim->valid = true;
  victim->last_used = ++tick_;
  victim->origin = origin;
  victim->demand_touched = false;
  victim->dirty = false;
  return evicted;
}

bool ReferenceCache::mark_dirty(Addr line) {
  Way* begin = set_begin(set_of(line));
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (begin[w].valid && begin[w].tag == line) {
      begin[w].dirty = true;
      return true;
    }
  }
  return false;
}

}  // namespace re::verify
