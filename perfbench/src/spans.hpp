#pragma once

/// \file spans.hpp
/// In-memory span recorder for the traced run. A span is one call from
/// the benchmark into a layer of the library: name, start, end, parent
/// span and request id. Spans are kept in memory and written out once, at
/// exit, as tab-separated lines that perfbench/metrics.py reads back to
/// compute self times.
///
/// A null `Tracer*` disables recording: `Span` then does nothing but one
/// pointer test, so the untraced run pays no clock reads for it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string tag;  ///< Free-form label (cache outcome, kernel, n).
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void record(SpanRecord span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// One line per span: id parent request name start_ns end_ns tag.
  void write(std::ostream& out) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& s : spans_) {
      out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.tag << '\n';
    }
  }

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens at construction, records at destruction.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint64_t request,
       std::uint64_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    record_.id = tracer_->next_id();
    record_.parent = parent;
    record_.request = request;
    record_.name = std::move(name);
    record_.start_ns = to_ns(Clock::now());
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    record_.end_ns = to_ns(Clock::now());
    tracer_->record(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return record_.id; }
  void tag(std::string value) {
    if (tracer_ != nullptr) record_.tag = std::move(value);
  }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

}  // namespace perfbench
