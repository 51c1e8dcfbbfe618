// Deterministic thread-pool executor for the analysis engine.
//
// The engine's determinism contract (DESIGN.md §11) is enforced here: a
// fan-out over n independent units produces artifacts that are
// byte-identical to the serial path at any worker count, because
//
//   * every unit writes only its own slot — results are collected into a
//     vector indexed by the unit's original position (ordered reduction;
//     scheduling order never leaks into the output), and
//   * the order in which idle workers *claim* units is a fixed
//     pseudo-random permutation of [0, n): load balancing is reproducible
//     run-to-run instead of depending on which thread won a race.
//
// A parallel fan-out is a fork-join: the calling thread and jobs-1 pool
// threads share one claim counter over the permutation, and a worker
// claims a unit only when it is ready to run it.
//
// jobs <= 1 runs inline on the calling thread with zero threading overhead
// — the serial path is the parallel path with one worker, not a separate
// code path that could drift. Nested map()/for_each() calls from inside a
// worker run inline on that worker for the same reason (and to avoid
// deadlocking a fixed-size pool).
//
// Exceptions thrown by units are captured and the one from the
// lowest-indexed unit is rethrown after all workers join, so error
// reporting is deterministic too.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "engine/cancel.hh"

namespace re::engine {

using TaskFn = std::function<void(std::size_t)>;

class Executor {
 public:
  /// `jobs` is clamped to at least 1.
  explicit Executor(int jobs);

  int jobs() const { return jobs_; }

  /// Run fn(i) for every i in [0, n), spreading units over the workers.
  /// fn must only touch state owned by unit i (or immutable shared state).
  /// When `cancel` is armed, workers stop claiming units and Cancelled is
  /// thrown after the in-flight units drain — unless some unit also threw,
  /// in which case that error wins (it describes work that actually ran).
  void for_each(std::size_t n, const TaskFn& fn,
                const CancelToken* cancel = nullptr) const;

  /// Ordered map: returns {fn(0), fn(1), ..., fn(n-1)} — always in index
  /// order, regardless of which worker computed which unit. R need not be
  /// default-constructible: units emplace into optional slots that are
  /// unwrapped (moved out) on return.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn, const CancelToken* cancel = nullptr) const
      -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<std::optional<R>> slots(n);
    for_each(n, [&](std::size_t i) { slots[i].emplace(fn(i)); }, cancel);
    std::vector<R> results;
    results.reserve(n);
    for (std::optional<R>& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

  /// True while the calling thread is running units of a parallel fan-out
  /// (nested fan-outs run inline).
  static bool in_worker();

 private:
  int jobs_ = 1;
};

}  // namespace re::engine
