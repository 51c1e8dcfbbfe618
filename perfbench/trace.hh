// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files, around its calls
// into the repository's public functions; nothing inside the program is
// instrumented. Each span has a name, a start, an end and a parent (the
// span that caused it). Spans stay in memory until the run ends, when the
// benchmark reduces them to per-layer metrics and writes them out as a
// Chrome trace-event file.
//
// A null Tracer* means tracing is off: every Span is then a no-op. Only
// `serve` runs the same code traced and untraced; traced `suite` and `mix`
// passes run the benchmark's copy of the library entry point (see
// workloads.hh).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct SpanRecord {
  const char* name = "";  // string literal or Tracer::intern()ed
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoParent;  // index into Tracer::spans()
  std::uint64_t thread = 0;         // stable small id per OS thread
};

/// Duration and self time summed over every span of one name.
struct SpanTotals {
  double total_ms = 0.0;
  /// Duration minus the part of the interval covered by child spans.
  double self_ms = 0.0;
};

class Tracer {
 public:
  Tracer();

  /// Open a span; returns its id. `parent` kNoParent means "the innermost
  /// open span on this thread", which is none on a fresh worker thread, so
  /// work fanned out to other threads passes its parent explicitly.
  std::int64_t open(const char* name, std::int64_t parent = kNoParent);
  void close(std::int64_t id);

  /// A stable copy of `name` for spans whose names are built at run time.
  const char* intern(const std::string& name);

  /// Nanoseconds since the tracer was created.
  std::int64_t now_ns() const;

  std::vector<SpanRecord> spans() const;
  std::map<std::string, SpanTotals> totals() const;

  /// Write the spans as Chrome trace-event JSON (opens in Perfetto or
  /// chrome://tracing). At most `max_events` spans are written, oldest
  /// first; the totals above always cover every span.
  bool write_chrome_trace(const std::string& path,
                          std::size_t max_events) const;

 private:
  std::uint64_t thread_id();

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;  // guards the three members below
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, std::uint64_t> threads_;
  std::set<std::string> names_;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::int64_t parent = kNoParent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, parent) : kNoParent) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
