// Small online-statistics helpers shared by the workload/metrics layers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnsguard {

/// Online mean/min/max/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Keeps every sample; answers exact percentile queries. Intended for
/// latency distributions whose sample counts are modest (≤ millions).
class Percentiles {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  /// Makes room for `n` samples, so adding them does not allocate.
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// p in [0, 100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double p);
  [[nodiscard]] double median() { return percentile(50.0); }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace dnsguard
