// Small helpers both benchmark binaries share: a JSON object writer for
// their one-line result, quantiles, and the monotonic clock (the same
// CLOCK_MONOTONIC run.py reads, so set-up time spans both processes).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (reordered in place); 0 when empty.
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// Builds one JSON object. Keys are plain identifiers; strings are never
/// escaped beyond quotes (callers pass only names and hex digests).
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(std::string_view key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(std::string_view key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(std::string_view key, std::string_view v) {
    return Raw(key, "\"" + std::string(v) + "\"");
  }
  JsonObject& Counters(std::string_view key,
                       const std::map<std::string, std::uint64_t>& m) {
    JsonObject inner;
    for (const auto& [k, v] : m) inner.Int(k, v);
    return Raw(key, inner.str());
  }
  JsonObject& Array(std::string_view key, const std::vector<double>& v) {
    std::string body;
    char buf[64];
    for (const double x : v) {
      if (!body.empty()) body += ", ";
      if (std::isfinite(x)) {
        std::snprintf(buf, sizeof buf, "%.17g", x);
        body += buf;
      } else {
        body += "null";
      }
    }
    return Raw(key, "[" + body + "]");
  }
  JsonObject& Object(std::string_view key, const JsonObject& inner) {
    return Raw(key, inner.str());
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& Raw(std::string_view key, std::string_view value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  std::string body_;
};

}  // namespace perfbench
