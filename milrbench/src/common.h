// Small shared helpers for the benchmark: clocks, order statistics, the
// result record and a minimal JSON writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace milrbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide origin (steady clock).
inline double NowSeconds() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

inline std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for an
/// empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Operations attempted and failed, by kind.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// What one run reports: metrics with units, operation counts and the
/// diagnostics that explain them. Serialized as one JSON object.
struct RunRecord {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, OpCount> ops;  // "requests", "fault_repairs", ...
  std::map<std::string, double> diagnostics;
  std::map<std::string, std::string> labels;  // e.g. solve modes
  std::vector<std::string> notes;      // human-readable failure reasons
  bool correct = true;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
  std::string ToJson() const;
};

std::string JsonEscape(const std::string& s);
std::string JsonNumber(double v);

}  // namespace milrbench
