#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last. One tracer is live per
// process, so the stack needs no tracer key.
thread_local std::vector<std::int64_t> t_open;

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint64_t Tracer::thread_id() {
  const auto [it, inserted] =
      threads_.emplace(std::this_thread::get_id(), threads_.size());
  return it->second;
}

const char* Tracer::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_.insert(name).first->c_str();
}

std::int64_t Tracer::open(const char* name, std::int64_t parent) {
  if (parent == kNoParent && !t_open.empty()) parent = t_open.back();
  const std::int64_t start = now_ns();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(SpanRecord{name, start, start, parent, thread_id()});
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent != kNoParent) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
  }

  std::map<std::string, SpanTotals> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& span = all[i];
    // Children may run in parallel on other threads: subtract the union of
    // their intervals, clipped to this span, not the sum of their lengths.
    cover.clear();
    for (std::size_t c : children[i]) {
      const std::int64_t lo = std::max(all[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(all[c].end_ns, span.end_ns);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    const std::int64_t duration = span.end_ns - span.start_ns;
    SpanTotals& totals = out[span.name];
    totals.total_ms += static_cast<double>(duration) / 1e6;
    totals.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                std::size_t max_events) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file);
  const std::size_t n = std::min(all.size(), max_events);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& span = all[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<unsigned long long>(span.thread),
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 static_cast<long long>(span.parent));
  }
  std::fprintf(file,
               "],\"otherData\":{\"spans_recorded\":%zu,"
               "\"spans_written\":%zu}}\n",
               all.size(), n);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
