// Differential test of the simulator's cache against the reference cache it
// replaced: the same seeded random operations go to sim::SetAssocCache and
// verify::ReferenceCache, and every return value and every Eviction field
// must match. The line universe is twice each cache's capacity, so hits and
// evictions are both common, and both caches restart empty every epoch, so
// fills into empty ways keep recurring.
//
//   RE_TEST_SEED=7 ctest -L verify -R ReferenceCache
#include "verify/reference_cache.hh"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "support/rng.hh"
#include "testutil.hh"

namespace re::verify {
namespace {

struct Shape {
  std::string name;
  sim::CacheGeometry geometry;
};

void PrintTo(const Shape& shape, std::ostream* out) { *out << shape.name; }

/// The six Table II geometries, plus a direct-mapped and a single-set one.
std::vector<Shape> shapes() {
  const sim::MachineConfig amd = sim::amd_phenom_ii();
  const sim::MachineConfig intel = sim::intel_sandybridge();
  return {
      {"amd_l1", amd.l1},       {"amd_l2", amd.l2},
      {"amd_llc", amd.llc},     {"intel_l1", intel.l1},
      {"intel_l2", intel.l2},   {"intel_llc", intel.llc},
      {"one_way", {4 << 10, 1}}, {"one_set", {8 * kLineSize, 8}},
  };
}

bool same(const std::optional<sim::Eviction>& a,
          const std::optional<sim::Eviction>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->line == b->line && a->origin == b->origin &&
                a->demand_touched == b->demand_touched && a->dirty == b->dirty);
}

std::string describe(const std::optional<sim::Eviction>& ev) {
  if (!ev) return "no eviction";
  std::ostringstream out;
  out << "evict line=" << ev->line
      << " origin=" << static_cast<int>(ev->origin)
      << " touched=" << ev->demand_touched << " dirty=" << ev->dirty;
  return out.str();
}

class ReferenceCacheDiff : public ::testing::TestWithParam<Shape> {};

TEST_P(ReferenceCacheDiff, EveryResultMatchesTheReference) {
  constexpr int kEpochs = 16;
  constexpr int kOpsPerEpoch = 1 << 16;  // 16 x 64 Ki = 1 Mi operations
  const sim::CacheGeometry& geometry = GetParam().geometry;
  const std::uint64_t universe = 2 * geometry.num_lines();
  Rng rng(re::testing::test_seed());
  std::uint64_t hits = 0, evictions = 0, empty_fills = 0;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    sim::SetAssocCache cache(geometry);
    ReferenceCache reference(geometry);
    for (int op = 0; op < kOpsPerEpoch; ++op) {
      const Addr line = rng.next(universe);
      const std::uint64_t kind = rng.next(4);
      if (kind < 2) {
        const bool demand = kind == 0;
        const bool hit = cache.access(line, demand);
        ASSERT_EQ(hit, reference.access(line, demand))
            << "access(" << line << ", " << demand << ") at epoch " << epoch
            << " op " << op;
        if (hit) {
          ++hits;
          continue;
        }
        const auto origin = static_cast<sim::FillOrigin>(rng.next(3));
        const std::optional<sim::Eviction> got = cache.fill(line, origin);
        const std::optional<sim::Eviction> want = reference.fill(line, origin);
        ASSERT_TRUE(same(got, want))
            << "fill(" << line << ") at epoch " << epoch << " op " << op
            << ": " << describe(got) << ", reference " << describe(want);
        ++(got ? evictions : empty_fills);
      } else if (kind == 2) {
        ASSERT_EQ(cache.contains(line), reference.contains(line))
            << "contains(" << line << ") at epoch " << epoch << " op " << op;
      } else {
        ASSERT_EQ(cache.mark_dirty(line), reference.mark_dirty(line))
            << "mark_dirty(" << line << ") at epoch " << epoch << " op "
            << op;
      }
    }
  }
  // The stream really exercised all three paths.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(empty_fills, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReferenceCacheDiff, ::testing::ValuesIn(shapes()),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace re::verify
