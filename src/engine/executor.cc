#include "engine/executor.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

namespace re::engine {

namespace {

thread_local bool t_in_worker = false;

/// Seed of the claim permutation. It orders claims, never results; fixing
/// it makes a fan-out's claim order the same on every run.
constexpr std::uint64_t kClaimSeed = 0x9E3779B97F4A7C15ull;

/// splitmix64 — the standard cheap seeded mixer (same family as
/// support/rng.hh).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seeded Fisher-Yates permutation of [0, n): the order in which workers
/// claim units. Deterministic in n; independent of scheduling.
std::vector<std::size_t> claim_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = kClaimSeed;
  for (std::size_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

/// Error and cancellation state of one parallel fan-out. Among the units
/// that threw, the lowest-indexed one is rethrown — error selection depends
/// on unit identity, never on which worker lost a race.
struct Outcome {
  std::mutex mutex;
  std::exception_ptr first_error = nullptr;
  std::size_t first_error_index = 0;
  std::atomic<bool> failed{false};
  std::atomic<bool> cancelled{false};
};

/// One worker's claim loop. A worker claims the next slot of the
/// permutation only when it is ready to run it, and stops claiming once a
/// unit has failed or the token is armed; units already running drain.
void work(const std::vector<std::size_t>& order,
          std::atomic<std::size_t>& next, const TaskFn& fn,
          const CancelToken* cancel, Outcome& outcome) {
  t_in_worker = true;
  for (;;) {
    const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= order.size()) break;
    if (outcome.failed.load(std::memory_order_relaxed)) break;
    if (cancel != nullptr && cancel->requested()) {
      outcome.cancelled.store(true, std::memory_order_relaxed);
      break;
    }
    const std::size_t unit = order[slot];
    try {
      fn(unit);
    } catch (...) {
      std::lock_guard<std::mutex> lock(outcome.mutex);
      if (outcome.first_error == nullptr ||
          unit < outcome.first_error_index) {
        outcome.first_error = std::current_exception();
        outcome.first_error_index = unit;
      }
      outcome.failed.store(true, std::memory_order_relaxed);
    }
  }
  t_in_worker = false;
}

}  // namespace

Executor::Executor(int jobs) : jobs_(std::max(1, jobs)) {}

bool Executor::in_worker() { return t_in_worker; }

void Executor::for_each(std::size_t n, const TaskFn& fn,
                        const CancelToken* cancel) const {
  if (n == 0) return;

  // Serial path, and the nested-fan-out path: run inline. A worker that
  // fans out again would deadlock a fixed pool and gains nothing on a
  // machine already saturated by the outer fan-out.
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), n);
  if (workers <= 1 || in_worker()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->requested()) throw Cancelled();
      fn(i);
    }
    return;
  }

  const std::vector<std::size_t> order = claim_order(n);
  Outcome outcome;
  // The claim counter outlives the join below: the calling thread can run
  // out of units while pool threads are still inside theirs, and those
  // threads claim again when they return.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back([&] { work(order, next, fn, cancel, outcome); });
    }
  } catch (const std::system_error&) {
    // The OS refused another thread: the workers already started share the
    // units (the threads that did start must still be joined below).
  }
  work(order, next, fn, cancel, outcome);  // the calling thread is a worker
  for (std::thread& t : pool) t.join();

  // Unit errors outrank cancellation: they describe work that actually ran
  // and the lowest-index selection keeps them deterministic.
  if (outcome.first_error != nullptr) {
    std::rethrow_exception(outcome.first_error);
  }
  if (outcome.cancelled.load(std::memory_order_relaxed)) throw Cancelled();
}

}  // namespace re::engine
