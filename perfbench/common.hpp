// Shared helpers for the repository benchmark: clocks, a small JSON writer,
// order statistics and digests.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                             std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Exact order statistic: the smallest sample with at least q of the
/// samples at or below it (nearest-rank). `samples` is reordered.
template <typename T>
double quantile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return static_cast<double>(samples[rank - 1]);
}

template <typename T>
double median(std::vector<T> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? static_cast<double>(samples[n / 2])
                    : (static_cast<double>(samples[n / 2 - 1]) +
                       static_cast<double>(samples[n / 2])) /
                          2.0;
}

/// Minimal streaming JSON writer: objects, arrays, numbers, strings.
class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(std::string_view k) {
    comma();
    string_literal(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }
  Json& value(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& value(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(std::string_view v) {
    comma();
    string_literal(v);
    return *this;
  }
  Json& value(const char* v) { return value(std::string_view(v)); }
  template <typename T>
  Json& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }
  Json& field(std::string_view k, int v) {
    key(k);
    return value(static_cast<double>(v));
  }
  Json& field(std::string_view k, unsigned v) {
    key(k);
    return value(static_cast<std::uint64_t>(v));
  }
  Json& field(std::string_view k, std::size_t v) {
    key(k);
    return value(static_cast<std::uint64_t>(v));
  }
  Json& array(std::string_view k, const std::vector<double>& values) {
    key(k);
    begin_array();
    for (const double v : values) value(v);
    return end_array();
  }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void string_literal(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool pending_value_ = false;
};

/// Thrown when an output check fails; perfbench then exits non-zero.
struct GateFailure {
  std::string what;
};

}  // namespace perfbench
