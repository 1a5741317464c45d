// Shared helpers for the perfbench binary: a monotonic
// clock, order statistics, and the ordered metric list the binary
// prints as its result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile, q in [0, 1]; NaN on an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

/// Median (mean of the middle pair for even sizes); NaN when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in emission order; a name may be set once.
class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (const Metric& m : metrics_) {
      if (m.name == name) throw std::logic_error("metric set twice: " + name);
    }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
