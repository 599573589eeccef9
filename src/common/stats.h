// Exact sample percentiles, shared by the workload/metrics layers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnsguard {

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
