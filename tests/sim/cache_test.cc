#include "sim/cache.hh"

#include <gtest/gtest.h>

namespace re::sim {
namespace {

CacheGeometry geom(std::uint64_t size, std::uint32_t assoc) {
  return CacheGeometry{size, assoc};
}

TEST(CacheGeometry, DerivedQuantities) {
  const CacheGeometry g{64 << 10, 2};
  EXPECT_EQ(g.num_lines(), 1024u);
  EXPECT_EQ(g.num_sets(), 512u);
}

TEST(SetAssocCache, RejectsNonPowerOfTwoSets) {
  EXPECT_THROW(SetAssocCache(geom(3 * 64, 1)), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(geom(0, 1)), std::invalid_argument);
}

TEST(SetAssocCache, MissThenHit) {
  SetAssocCache cache(geom(4 << 10, 2));
  EXPECT_FALSE(cache.access(1, true));
  cache.fill(1, FillOrigin::Demand);
  EXPECT_TRUE(cache.access(1, true));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(SetAssocCache, LruEvictsLeastRecentlyUsed) {
  // 2 ways, 1 set: size = 2 lines.
  SetAssocCache cache(geom(128, 2));
  cache.fill(0, FillOrigin::Demand);
  cache.fill(1, FillOrigin::Demand);
  cache.access(0, true);  // 0 is now MRU
  const auto evicted = cache.fill(2, FillOrigin::Demand);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->line, 1u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(1));
}

TEST(SetAssocCache, FillPrefersInvalidWays) {
  SetAssocCache cache(geom(256, 4));  // 4 ways, 1 set
  cache.fill(10, FillOrigin::Demand);
  const auto evicted = cache.fill(11, FillOrigin::Demand);
  EXPECT_FALSE(evicted.has_value());  // three ways still invalid
}

TEST(SetAssocCache, SetsAreIndependent) {
  // 2 sets x 1 way.
  SetAssocCache cache(geom(128, 1));
  cache.fill(0, FillOrigin::Demand);  // set 0
  cache.fill(1, FillOrigin::Demand);  // set 1
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  cache.fill(2, FillOrigin::Demand);  // set 0 again -> evicts line 0
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

TEST(SetAssocCache, EvictionReportsOriginAndTouchState) {
  SetAssocCache cache(geom(64, 1));  // 1 set, 1 way
  cache.fill(1, FillOrigin::HwPrefetch);
  auto ev = cache.fill(2, FillOrigin::SwPrefetch);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->origin, FillOrigin::HwPrefetch);
  EXPECT_FALSE(ev->demand_touched);

  cache.access(2, /*demand=*/true);
  ev = cache.fill(3, FillOrigin::Demand);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->origin, FillOrigin::SwPrefetch);
  EXPECT_TRUE(ev->demand_touched);
}

TEST(SetAssocCache, NonDemandAccessDoesNotMarkTouched) {
  SetAssocCache cache(geom(64, 1));
  cache.fill(1, FillOrigin::SwPrefetch);
  cache.access(1, /*demand=*/false);
  const auto ev = cache.fill(2, FillOrigin::Demand);
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(ev->demand_touched);
}

TEST(SetAssocCache, AccessRefreshesRecency) {
  SetAssocCache cache(geom(128, 2));  // 1 set, 2 ways
  cache.fill(0, FillOrigin::Demand);
  cache.fill(1, FillOrigin::Demand);
  // Touch 1 then 0; next eviction must take 1.
  cache.access(1, true);
  cache.access(0, true);
  const auto ev = cache.fill(2, FillOrigin::Demand);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line, 1u);
}

// Property: a cyclic sweep over N lines in a fully-associative cache of N
// lines hits after warmup; over N+1 lines it always misses (LRU).
class LruSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LruSweepTest, CyclicSweepBoundary) {
  const std::uint32_t ways = GetParam();
  // 1 set, `ways` lines.
  const CacheGeometry one_set = geom(std::uint64_t{ways} * kLineSize, ways);
  SetAssocCache fitting(one_set);

  // Working set == capacity: all hits after the first pass.
  for (Addr line = 0; line < ways; ++line) {
    fitting.fill(line, FillOrigin::Demand);
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (Addr line = 0; line < ways; ++line) {
      EXPECT_TRUE(fitting.access(line, true)) << "ways=" << ways;
    }
  }

  // Working set == capacity + 1, from an empty cache: LRU thrashes, zero
  // hits.
  SetAssocCache thrashing(one_set);
  for (int pass = 0; pass < 3; ++pass) {
    for (Addr line = 0; line <= ways; ++line) {
      if (!thrashing.access(line, true)) {
        thrashing.fill(line, FillOrigin::Demand);
      }
    }
  }
  for (Addr line = 0; line <= ways; ++line) {
    if (thrashing.access(line, true)) {
      // Only the most recently filled `ways` lines can be resident; the
      // cyclic order guarantees the next needed line was just evicted.
      continue;
    }
    thrashing.fill(line, FillOrigin::Demand);
  }
  // Quantitative check: a full extra pass sees zero hits.
  int hits = 0;
  for (Addr line = 0; line <= ways; ++line) {
    if (thrashing.access(line, true)) {
      ++hits;
    } else {
      thrashing.fill(line, FillOrigin::Demand);
    }
  }
  EXPECT_EQ(hits, 0) << "ways=" << ways;
}

INSTANTIATE_TEST_SUITE_P(Associativities, LruSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16, 24));

}  // namespace
}  // namespace re::sim
