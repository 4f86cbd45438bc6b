// In-memory span recorder for the traced run: spans wrap the public calls
// the benchmark makes into each module, are kept in memory while the run
// lasts, and are written out once at the end as Chrome trace JSON. Self
// time is a span's duration minus that of its direct children on the same
// lane.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Event {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t lane = 0;
  };

  /// Records one finished span. Thread-safe.
  void add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint32_t lane = 0);

  /// Chrome trace_event JSON ({"traceEvents": [...]}, microseconds).
  [[nodiscard]] std::string chrome_json() const;

  /// Total and self nanoseconds per span name.
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// RAII span; a null log makes it a no-op that never reads the clock.
class Span {
 public:
  Span(SpanLog* log, std::string name, std::uint32_t lane = 0)
      : log_(log), name_(std::move(name)), lane_(lane),
        start_(log != nullptr ? now_ns() : 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (log_ != nullptr) log_->add(std::move(name_), start_, now_ns(), lane_);
  }

 private:
  SpanLog* log_;
  std::string name_;
  std::uint32_t lane_;
  std::uint64_t start_;
};

}  // namespace perfbench
