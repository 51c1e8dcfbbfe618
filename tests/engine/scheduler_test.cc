// Work-stealing scheduler tests: the steal backend must honor the exact
// contract the fork-join backend set — exactly-once dispatch, byte-equal
// results at any worker count, inline nesting, drain-style cancellation,
// and lowest-index error selection — plus the steal-specific machinery:
// epoch-tagged claims and resource-hint prefetching.
#include "engine/scheduler.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.hh"
#include "testutil.hh"

namespace re::engine {
namespace {

Executor make_steal(int jobs, std::uint64_t seed = kDefaultExecutorSeed) {
  return Executor(jobs, seed, SchedulerBackend::kSteal);
}

TEST(SchedulerBackendNames, RoundTrip) {
  EXPECT_STREQ(scheduler_backend_name(SchedulerBackend::kForkJoin),
               "forkjoin");
  EXPECT_STREQ(scheduler_backend_name(SchedulerBackend::kSteal), "steal");
  SchedulerBackend parsed = SchedulerBackend::kForkJoin;
  EXPECT_TRUE(parse_scheduler_backend("steal", &parsed));
  EXPECT_EQ(parsed, SchedulerBackend::kSteal);
  EXPECT_TRUE(parse_scheduler_backend("forkjoin", &parsed));
  EXPECT_EQ(parsed, SchedulerBackend::kForkJoin);
  EXPECT_FALSE(parse_scheduler_backend("fifo", &parsed));
  EXPECT_EQ(parsed, SchedulerBackend::kForkJoin) << "*out touched on failure";
}

TEST(StealScheduler, VisitsEveryUnitExactlyOnce) {
  // Larger than several deque blocks, not a multiple of any worker count,
  // so refills, steals and the tail all get exercised.
  constexpr std::size_t kUnits = 5 * kStealDequeCapacity + 17;
  for (const int jobs : {1, 2, 7, 16}) {
    std::vector<std::atomic<int>> visits(kUnits);
    const Executor executor = make_steal(jobs);
    executor.for_each(kUnits, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < kUnits; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "unit " << i << " at jobs " << jobs;
    }
  }
}

TEST(StealScheduler, ResultsMatchForkJoinAndSerialAtAnyJobs) {
  // The property test of the determinism contract: every (backend, jobs)
  // combination produces the byte-identical result vector.
  const auto unit = [](std::size_t i) {
    return std::to_string(i * 31 + 7) + "/" + std::to_string(i % 5);
  };
  const std::vector<std::string> expected = Executor(1).map(333, unit);
  for (const int jobs : {1, 2, 7, 16}) {
    EXPECT_EQ(make_steal(jobs).map(333, unit), expected) << "jobs " << jobs;
    EXPECT_EQ(Executor(jobs).map(333, unit), expected) << "jobs " << jobs;
  }
}

TEST(StealScheduler, SeedNeverAffectsResults) {
  const auto unit = [](std::size_t i) { return i * i; };
  const Executor a = make_steal(7, /*seed=*/1);
  const Executor b = make_steal(7, /*seed=*/0xDEADBEEF);
  EXPECT_EQ(a.map(200, unit), b.map(200, unit));
}

TEST(StealScheduler, StealStormIsExactlyOnce) {
  // Steal storm: tiny units, many workers, many rounds — maximal owner /
  // thief contention on the claim words. Any double-run or drop shows up
  // in the per-unit counters.
  constexpr std::size_t kUnits = 2048;
  const Executor executor = make_steal(16);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::atomic<int>> visits(kUnits);
    std::atomic<std::uint64_t> sum{0};
    executor.for_each(kUnits, [&](std::size_t i) {
      ++visits[i];
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kUnits; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "unit " << i << " round " << round;
    }
    EXPECT_EQ(sum.load(), kUnits * (kUnits - 1) / 2) << "round " << round;
  }
}

TEST(StealScheduler, NestedFanOutRunsInlineOnWorkers) {
  const Executor outer = make_steal(4);
  const Executor inner = make_steal(4);
  std::atomic<int> nested_on_worker{0};
  const std::vector<int> sums = outer.map(8, [&](std::size_t i) {
    int sum = 0;
    std::vector<int> parts(16, 0);
    inner.for_each(16, [&](std::size_t j) {
      if (Executor::in_worker()) ++nested_on_worker;
      parts[j] = static_cast<int>(i * 100 + j);
    });
    for (const int p : parts) sum += p;
    return sum;
  });
  for (std::size_t i = 0; i < sums.size(); ++i) {
    int expected = 0;
    for (int j = 0; j < 16; ++j) expected += static_cast<int>(i) * 100 + j;
    EXPECT_EQ(sums[i], expected);
  }
  EXPECT_GT(nested_on_worker.load(), 0);
}

TEST(StealScheduler, MidStealCancellationDrainsInFlight) {
  // A token armed mid-fan-out stops new units from starting; units already
  // running finish (the counter never moves after the throw propagates).
  for (const int jobs : {1, 2, 7, 16}) {
    const Executor executor = make_steal(jobs);
    CancelToken cancel;
    std::atomic<int> ran{0};
    EXPECT_THROW(executor.for_each(
                     1024,
                     [&](std::size_t) {
                       if (++ran == 5) cancel.request();
                     },
                     &cancel),
                 Cancelled)
        << "jobs " << jobs;
    const int after_throw = ran.load();
    EXPECT_GE(after_throw, 5) << "jobs " << jobs;
    EXPECT_LT(after_throw, 1024) << "jobs " << jobs;
    EXPECT_EQ(ran.load(), after_throw) << "jobs " << jobs;
  }
}

TEST(StealScheduler, LowestIndexErrorOutranksCancelled) {
  // Property test at every contract job count: when units throw *and* the
  // token arms, the winner is always a unit error — and at jobs=1 (fully
  // ordered claims) it is exactly the lowest-indexed thrower.
  for (const int jobs : {1, 2, 7, 16}) {
    const Executor executor = make_steal(jobs);
    CancelToken cancel;
    try {
      executor.for_each(
          256,
          [&](std::size_t i) {
            if (i == 9 || i == 40 || i == 200) {
              cancel.request();
              throw std::runtime_error("unit " + std::to_string(i));
            }
          },
          &cancel);
      FAIL() << "expected a rethrow at jobs " << jobs;
    } catch (const Cancelled&) {
      FAIL() << "cancellation masked the unit error at jobs " << jobs;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what == "unit 9" || what == "unit 40" || what == "unit 200")
          << what << " at jobs " << jobs;
    }
  }
  // Serial claims run the full permutation order deterministically, so the
  // lowest-indexed thrower is reproducible run to run.
  const Executor serial = make_steal(1);
  try {
    serial.for_each(256, [](std::size_t i) {
      if (i == 9 || i == 40 || i == 200) {
        throw std::runtime_error("unit " + std::to_string(i));
      }
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "unit 9");
  }
}

TEST(Scheduler, PoolThreadsClaimAfterTheCallerRunsDry) {
  // The calling thread (worker 0) runs its units instantly while the pool
  // threads sleep inside theirs, so it leaves its claim loop first; the pool
  // threads then claim again. The backend's shared claim state must still
  // be alive for them (ASan reports stack-use-after-scope otherwise).
  for (const SchedulerBackend backend :
       {SchedulerBackend::kForkJoin, SchedulerBackend::kSteal}) {
    const Executor executor(4, kDefaultExecutorSeed, backend);
    for (int round = 0; round < 4; ++round) {
      std::vector<std::atomic<int>> visits(8);
      executor.for_each(8, [&](std::size_t i) {
        if (current_worker() != 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ++visits[i];
      });
      for (std::size_t i = 0; i < visits.size(); ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << scheduler_backend_name(backend) << " unit " << i << " round "
            << round;
      }
    }
  }
}

TEST(StealScheduler, EpochsAreMonotonePerFanOut) {
  const Executor executor = make_steal(4);
  executor.for_each(64, [](std::size_t) {});
  const std::uint64_t first = executor.last_epoch();
  EXPECT_GT(first, 0u);
  executor.for_each(64, [](std::size_t) {});
  EXPECT_GT(executor.last_epoch(), first);
  EXPECT_GE(current_epoch(), executor.last_epoch());
}

TEST(ResourceHints, PrefetchCountsLinesAndRespectsCap) {
  std::vector<std::uint64_t> buffer(1024, 1);
  ResourceHint t0{buffer.data(), 128, PrefetchMode::kT0};
  EXPECT_EQ(prefetch_resource(t0), 128 / kCacheLineBytes);
  ResourceHint nta{buffer.data(), 100, PrefetchMode::kNTA};
  EXPECT_EQ(prefetch_resource(nta), 2u);  // 100 bytes spans 2 lines
  ResourceHint oversized{buffer.data(), std::size_t{1} << 20,
                         PrefetchMode::kT0};
  EXPECT_EQ(prefetch_resource(oversized), kMaxPrefetchBytes / kCacheLineBytes);
  EXPECT_EQ(prefetch_resource(ResourceHint{}), 0u);
  ResourceHint none{buffer.data(), 64, PrefetchMode::kNone};
  EXPECT_EQ(prefetch_resource(none), 0u);
}

TEST(ResourceHints, DispatcherCountsAnnotatedUnits) {
  std::vector<int> data(4096, 7);
  const HintFn hints = [&](std::size_t i) {
    // Annotate only even units; odd units return an empty hint.
    if (i % 2 != 0) return ResourceHint{};
    return ResourceHint{data.data(), data.size() * sizeof(int),
                        PrefetchMode::kT0};
  };
  for (const SchedulerBackend backend :
       {SchedulerBackend::kForkJoin, SchedulerBackend::kSteal}) {
    const Executor executor(4, kDefaultExecutorSeed, backend);
    std::atomic<std::uint64_t> sum{0};
    executor.for_each(
        256, [&](std::size_t i) { sum.fetch_add(i); }, nullptr, &hints);
    EXPECT_EQ(sum.load(), 256u * 255u / 2u);
    EXPECT_EQ(executor.prefetch_hints(), 128u)
        << scheduler_backend_name(backend);
  }
}

TEST(ResourceHints, HintsNeverChangeResults) {
  std::vector<std::uint64_t> data(512);
  std::iota(data.begin(), data.end(), 0);
  const auto unit = [&](std::size_t i) { return data[i] * 3; };
  const HintFn hints = [&](std::size_t i) {
    return ResourceHint{&data[i], sizeof(data[i]), PrefetchMode::kNTA};
  };
  const std::vector<std::uint64_t> plain = Executor(1).map(512, unit);
  for (const SchedulerBackend backend :
       {SchedulerBackend::kForkJoin, SchedulerBackend::kSteal}) {
    for (const int jobs : {1, 2, 7}) {
      const Executor executor(jobs, kDefaultExecutorSeed, backend);
      EXPECT_EQ(executor.map(512, unit, nullptr, &hints), plain)
          << scheduler_backend_name(backend) << " jobs " << jobs;
    }
  }
}

TEST(StealScheduler, StealsAreCountedOnlyUnderStealBackend) {
  const Executor forkjoin(8);
  forkjoin.for_each(512, [](std::size_t) {});
  EXPECT_EQ(forkjoin.steals(), 0u);
  // Uneven units make victims' deques worth robbing; steals may still be
  // zero on a narrow host, so only the forkjoin-is-zero half is a hard
  // assertion.
  const Executor steal = make_steal(8);
  steal.for_each(512, [](std::size_t i) {
    volatile std::uint64_t x = 0;
    for (std::size_t k = 0; k < (i % 7) * 50; ++k) x += k;
  });
  SUCCEED();
}

TEST(DescribeExecutor, NamesEveryConfigField) {
  const Executor executor = make_steal(5, /*seed=*/0xABC);
  const std::string line = describe_executor(executor);
  EXPECT_NE(line.find("jobs=5"), std::string::npos) << line;
  EXPECT_NE(line.find("seed=0x0000000000000abc"), std::string::npos) << line;
  EXPECT_NE(line.find("scheduler=steal"), std::string::npos) << line;
  EXPECT_NE(line.find("deque=64"), std::string::npos) << line;
  EXPECT_NE(line.find("numa="), std::string::npos) << line;
}

}  // namespace
}  // namespace re::engine
