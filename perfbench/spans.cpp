#include "spans.hpp"

#include <algorithm>

namespace perfbench {

void SpanLog::add(std::string name, std::uint64_t start_ns,
                  std::uint64_t end_ns, std::uint32_t lane) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({std::move(name), start_ns,
                     end_ns > start_ns ? end_ns - start_ns : 0, lane});
}

std::string SpanLog::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t origin = UINT64_MAX;
  for (const auto& e : events_) origin = std::min(origin, e.start_ns);
  Json json;
  json.begin_object().key("traceEvents").begin_array();
  for (const auto& e : events_) {
    json.begin_object()
        .field("name", e.name)
        .field("cat", "perfbench")
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", static_cast<std::uint64_t>(e.lane))
        .field("ts", static_cast<double>(e.start_ns - origin) / 1e3)
        .field("dur", static_cast<double>(e.dur_ns) / 1e3)
        .end_object();
  }
  json.end_array().end_object();
  return json.str();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  // Per lane, sort by start (longer first on ties) and walk with a stack of
  // open ancestors: each span's duration is charged against its innermost
  // enclosing span's self time.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::vector<std::int64_t> self(events.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    self[i] = static_cast<std::int64_t>(e.dur_ns);
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (top.lane == e.lane && e.start_ns + e.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()] -= static_cast<std::int64_t>(e.dur_ns);
    stack.push_back(i);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    auto& t = out[events[i].name];
    ++t.count;
    t.total_ns += events[i].dur_ns;
    t.self_ns += static_cast<std::uint64_t>(std::max<std::int64_t>(0, self[i]));
  }
  return out;
}

}  // namespace perfbench
