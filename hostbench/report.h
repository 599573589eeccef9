// Small helpers shared by the untraced and traced runs: quantiles over
// samples, and the metric list the final JSON line is printed from. Wall
// and CPU clocks come from the paper benches' bench_common.h.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace hostbench {

using dnsguard::bench::thread_cpu_seconds;
using dnsguard::bench::wall_seconds_since;
using dnsguard::bench::WallClock;

[[nodiscard]] inline std::int64_t ns_between(WallClock::time_point a,
                                             WallClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Linear-interpolated quantile, p in [0, 100]; 0 for no samples. Sorts
/// `v` in place.
template <typename T>
[[nodiscard]] double quantile(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return static_cast<double>(v.back());
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[lo + 1]) * frac;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// Appends every sample `p` holds, times `scale`. Percentiles keeps its
/// samples private, but percentile() at rank i/(n-1) is the i-th smallest
/// sample, so reading every rank gives them all back.
inline void append_samples(dnsguard::Percentiles& p, double scale,
                           std::vector<double>& out) {
  const std::size_t n = p.count();
  for (std::size_t i = 0; i < n; ++i) {
    const double rank =
        n == 1 ? 0.0
               : 100.0 * static_cast<double>(i) / static_cast<double>(n - 1);
    out.push_back(p.percentile(rank) * scale);
  }
}

/// Peak resident memory of the process so far.
[[nodiscard]] inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A metrics registry's values by name, and the change of one between two.
using Snapshot = std::map<std::string, double>;

[[nodiscard]] inline Snapshot snapshot_of(
    const dnsguard::obs::MetricsRegistry& registry) {
  Snapshot s;
  for (auto& [name, value] : registry.snapshot()) s[name] = value;
  return s;
}

[[nodiscard]] inline double delta(const Snapshot& before,
                                  const Snapshot& after,
                                  const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace hostbench
