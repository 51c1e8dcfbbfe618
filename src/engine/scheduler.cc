#include "engine/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace re::engine {

namespace {

thread_local int t_worker_index = -1;

/// Process-wide fan-out epoch: every run_parallel takes the next value and
/// tags its task-claim words with it (claim words start at 0, epochs start
/// at 1, so a claim can never be confused with an unclaimed slot).
std::atomic<std::uint64_t> g_epoch{0};

constexpr std::size_t kNoUnit = ~std::size_t{0};

/// splitmix64 — the standard cheap seeded mixer (same family as
/// support/rng.hh); drives the claim and steal-victim permutations.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seeded Fisher-Yates permutation of [0, n): the order in which workers
/// claim units. Deterministic in (n, seed); independent of scheduling.
std::vector<std::size_t> claim_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

/// Seeded permutation of the other workers: the order worker `w` tries
/// steal victims. Deterministic in (workers, w, seed).
std::vector<std::size_t> victim_order(std::size_t workers, std::size_t w,
                                      std::uint64_t seed) {
  std::vector<std::size_t> victims;
  victims.reserve(workers - 1);
  for (std::size_t v = 0; v < workers; ++v) {
    if (v != w) victims.push_back(v);
  }
  std::uint64_t state = seed ^ mix64(w + 1);
  for (std::size_t i = victims.size(); i > 1; --i) {
    state = mix64(state);
    std::swap(victims[i - 1], victims[state % i]);
  }
  return victims;
}

/// Shared state of one fan-out: the task set, error/cancel resolution and
/// the dispatch counters. Among the units that threw, the lowest-indexed
/// one is rethrown — error selection depends on unit identity, never on
/// which worker lost a race.
struct Dispatch {
  std::size_t n = 0;
  const TaskFn* fn = nullptr;
  const CancelToken* cancel = nullptr;
  const HintFn* hints = nullptr;
  std::vector<std::size_t> order;
  std::uint64_t epoch = 0;

  std::exception_ptr first_error = nullptr;
  std::size_t first_error_index = 0;
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::atomic<bool> cancelled{false};

  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> prefetches{0};

  /// Run one claimed unit, honoring the drain rules: after a failure the
  /// pool drains fast; after a cancellation no new unit starts (a unit is
  /// "started" the moment fn is entered — claimed-but-skipped is fine).
  void run_unit(std::size_t unit) {
    if (failed.load(std::memory_order_relaxed)) return;
    if (cancel != nullptr && cancel->requested()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    try {
      (*fn)(unit);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error == nullptr || unit < first_error_index) {
        first_error = std::current_exception();
        first_error_index = unit;
      }
      failed.store(true, std::memory_order_relaxed);
    }
  }

  /// Prefetch `unit`'s annotated resource; returns 1 when a hint was
  /// issued (the per-backend loops pipeline this: the next unit's
  /// resource is prefetched before the current unit runs).
  std::uint64_t prefetch_unit(std::size_t unit) const {
    if (hints == nullptr || unit == kNoUnit) return 0;
    return prefetch_resource((*hints)(unit)) != 0 ? 1 : 0;
  }
};

// ---- fork-join backend ----------------------------------------------------

void forkjoin_worker(Dispatch& d, std::atomic<std::size_t>& next, int worker) {
  t_worker_index = worker;
  std::uint64_t local_hints = 0;
  std::size_t pending = kNoUnit;
  for (;;) {
    const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
    const std::size_t unit = slot < d.n ? d.order[slot] : kNoUnit;
    local_hints += d.prefetch_unit(unit);  // overlap with pending's run
    if (pending != kNoUnit) d.run_unit(pending);
    pending = unit;
    if (unit == kNoUnit) break;
  }
  if (local_hints != 0) {
    d.prefetches.fetch_add(local_hints, std::memory_order_relaxed);
  }
  t_worker_index = -1;
}

// ---- work-stealing backend ------------------------------------------------

/// One bounded per-worker deque: the current block [begin, end) of the
/// claim permutation, with the owner's pop cursor. Owners pop the front;
/// thieves scan from the back. All crossings (owner vs thief, stale block
/// views after a refill) are resolved by the per-task claim words — a
/// deque is routing metadata, never the source of truth on ownership.
struct alignas(64) Deque {
  std::atomic<std::size_t> begin{0};
  std::atomic<std::size_t> end{0};
  std::atomic<std::size_t> front{0};
};

struct StealState {
  std::unique_ptr<std::atomic<std::uint64_t>[]> claims;  // 0 or the epoch
  std::vector<Deque> deques;
  std::atomic<std::size_t> pool_next{0};  // next unhanded block start
};

/// Claim a task: CAS its claim word from 0 to the fan-out's epoch. The
/// winner (exactly one) runs the task.
bool try_claim(StealState& s, const Dispatch& d, std::size_t unit) {
  std::uint64_t expected = 0;
  return s.claims[unit].compare_exchange_strong(expected, d.epoch,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed);
}

/// Next unit for worker `w`: own deque front, then a block refill from the
/// shared pool (touched once per kStealDequeCapacity tasks, not once per
/// task), then a steal from the back of each victim in seeded order.
/// kNoUnit means every task has been claimed (or is resident only in a
/// just-refilled deque whose owner will run it) — the worker can retire.
std::size_t acquire_unit(const Dispatch& d, StealState& s, std::size_t w,
                         const std::vector<std::size_t>& victims,
                         std::uint64_t& local_steals) {
  Deque& own = s.deques[w];
  for (;;) {
    std::size_t f = own.front.load(std::memory_order_relaxed);
    const std::size_t e = own.end.load(std::memory_order_relaxed);
    while (f < e) {
      const std::size_t unit = d.order[f];
      own.front.store(f + 1, std::memory_order_release);
      ++f;
      if (try_claim(s, d, unit)) return unit;
    }
    const std::size_t block =
        s.pool_next.fetch_add(kStealDequeCapacity, std::memory_order_relaxed);
    if (block >= d.n) break;  // pool dry: go steal
    own.begin.store(block, std::memory_order_relaxed);
    own.front.store(block, std::memory_order_relaxed);
    own.end.store(std::min(block + kStealDequeCapacity, d.n),
                  std::memory_order_release);
  }
  for (const std::size_t v : victims) {
    Deque& victim = s.deques[v];
    const std::size_t e = victim.end.load(std::memory_order_acquire);
    const std::size_t f = victim.front.load(std::memory_order_acquire);
    const std::size_t b = victim.begin.load(std::memory_order_acquire);
    const std::size_t lo = std::max(f, b);
    if (e > d.n || lo >= e) continue;  // empty (or torn view of a refill)
    for (std::size_t i = e; i > lo; --i) {
      const std::size_t unit = d.order[i - 1];
      if (try_claim(s, d, unit)) {
        ++local_steals;
        return unit;
      }
    }
  }
  return kNoUnit;
}

void steal_worker(Dispatch& d, StealState& s, std::size_t workers,
                  std::size_t w, std::uint64_t seed) {
  t_worker_index = static_cast<int>(w);
  const std::vector<std::size_t> victims = victim_order(workers, w, seed);
  std::uint64_t local_steals = 0;
  std::uint64_t local_hints = 0;
  std::size_t pending = kNoUnit;
  for (;;) {
    const std::size_t unit = acquire_unit(d, s, w, victims, local_steals);
    local_hints += d.prefetch_unit(unit);  // overlap with pending's run
    if (pending != kNoUnit) d.run_unit(pending);
    pending = unit;
    if (unit == kNoUnit) break;
  }
  if (local_steals != 0) {
    d.steals.fetch_add(local_steals, std::memory_order_relaxed);
  }
  if (local_hints != 0) {
    d.prefetches.fetch_add(local_hints, std::memory_order_relaxed);
  }
  t_worker_index = -1;
}

}  // namespace

const char* scheduler_backend_name(SchedulerBackend backend) {
  switch (backend) {
    case SchedulerBackend::kForkJoin:
      return "forkjoin";
    case SchedulerBackend::kSteal:
      return "steal";
  }
  return "forkjoin";
}

bool parse_scheduler_backend(const std::string& name, SchedulerBackend* out) {
  if (name == "forkjoin") {
    *out = SchedulerBackend::kForkJoin;
    return true;
  }
  if (name == "steal") {
    *out = SchedulerBackend::kSteal;
    return true;
  }
  return false;
}

std::size_t prefetch_resource(const ResourceHint& hint) {
  if (hint.empty() || hint.mode == PrefetchMode::kNone) return 0;
  const char* base = static_cast<const char*>(hint.data);
  const std::size_t span = std::min(hint.bytes, kMaxPrefetchBytes);
  std::size_t lines = 0;
  for (std::size_t off = 0; off < span; off += kCacheLineBytes) {
#if defined(__GNUC__) || defined(__clang__)
    if (hint.mode == PrefetchMode::kNTA) {
      __builtin_prefetch(base + off, /*rw=*/0, /*locality=*/0);
    } else {
      __builtin_prefetch(base + off, /*rw=*/0, /*locality=*/3);
    }
#endif
    ++lines;
  }
  return lines;
}

int current_worker() { return t_worker_index; }

std::uint64_t current_epoch() {
  return g_epoch.load(std::memory_order_relaxed);
}

void run_parallel(const SchedulerConfig& config, std::size_t n,
                  const TaskFn& fn, const CancelToken* cancel,
                  const HintFn* hints, SchedulerStats* stats) {
  if (n == 0) return;
  const std::size_t workers = std::max<std::size_t>(
      2, std::min(config.workers, n));  // the serial path lives in Executor

  Dispatch d;
  d.n = n;
  d.fn = &fn;
  d.cancel = cancel;
  d.hints = hints;
  d.order = claim_order(n, config.seed);
  d.epoch = 1 + g_epoch.fetch_add(1, std::memory_order_relaxed);

  // The calling thread is worker 0; save/restore its worker mark so a
  // direct call from a pool thread (the executor prevents this, tests may
  // not) cannot leak state.
  const int caller_mark = t_worker_index;

  // Both backends' shared state outlives the join below: the calling
  // thread can run out of units while pool threads are still inside theirs,
  // and those threads claim again when they return.
  StealState s;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  if (config.backend == SchedulerBackend::kSteal) {
    s.claims = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.claims[i].store(0, std::memory_order_relaxed);
    }
    s.deques = std::vector<Deque>(workers);
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(
          [&, w] { steal_worker(d, s, workers, w, config.seed); });
    }
    steal_worker(d, s, workers, 0, config.seed);
  } else {
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(
          [&, w] { forkjoin_worker(d, next, static_cast<int>(w)); });
    }
    forkjoin_worker(d, next, 0);
  }
  for (std::thread& t : pool) t.join();
  t_worker_index = caller_mark;

  if (stats != nullptr) {
    stats->tasks = n;
    stats->steals = d.steals.load(std::memory_order_relaxed);
    stats->prefetch_hints = d.prefetches.load(std::memory_order_relaxed);
    stats->epoch = d.epoch;
  }

  // Unit errors outrank cancellation: they describe work that actually ran
  // and the lowest-index selection keeps them deterministic.
  if (d.first_error != nullptr) std::rethrow_exception(d.first_error);
  if (d.cancelled.load(std::memory_order_relaxed)) throw Cancelled();
}

}  // namespace re::engine
