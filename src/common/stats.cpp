#include "common/stats.h"

#include <numeric>

namespace dnsguard {

double Percentiles::percentile(double p) {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double Percentiles::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

}  // namespace dnsguard
