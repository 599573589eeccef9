#include "obs/metrics.h"

#include <cstdio>

namespace dnsguard::obs {

// --- LatencyHistogram --------------------------------------------------------

std::uint64_t LatencyHistogram::bucket_lower(std::size_t idx) noexcept {
  if (idx < 4) return idx;
  const std::size_t exp = 2 + (idx - 4) / 4;
  const std::size_t sub = (idx - 4) % 4;
  return (std::uint64_t{1} << exp) + sub * (std::uint64_t{1} << (exp - 2));
}

std::uint64_t LatencyHistogram::bucket_upper(std::size_t idx) noexcept {
  if (idx < 4) return idx + 1;
  if (idx + 1 >= kBuckets) return ~std::uint64_t{0};
  return bucket_lower(idx + 1);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the target sample, 1-based; p=100 hits the last sample.
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[i];
    if (static_cast<double>(seen) >= rank) {
      const auto lo = static_cast<double>(bucket_lower(i));
      const auto hi = static_cast<double>(bucket_upper(i));
      const double within =
          (rank - before) / static_cast<double>(buckets_[i]);
      return lo + (hi - lo) * within;
    }
  }
  return static_cast<double>(bucket_upper(kBuckets - 1));
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry::Entry* MetricsRegistry::find_entry(std::string_view name,
                                                    Kind kind) {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return nullptr;
  Entry& e = entries_[it->second];
  return e.kind == kind ? &e : nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::find_entry(
    std::string_view name, Kind kind) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return nullptr;
  const Entry& e = entries_[it->second];
  return e.kind == kind ? &e : nullptr;
}

std::string MetricsRegistry::register_cell(std::string_view name, Kind kind,
                                           void* cell) {
  std::string unique(name);
  for (int n = 2; by_name_.contains(unique); ++n) {
    unique = std::string(name) + "#" + std::to_string(n);
  }
  by_name_.emplace(unique, entries_.size());
  entries_.push_back(Entry{unique, kind, cell});
  return unique;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (Entry* e = find_entry(name, Kind::kCounter)) {
    return *static_cast<Counter*>(e->cell);
  }
  owned_counters_.emplace_back();
  register_cell(name, Kind::kCounter, &owned_counters_.back());
  return owned_counters_.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (Entry* e = find_entry(name, Kind::kGauge)) {
    return *static_cast<Gauge*>(e->cell);
  }
  owned_gauges_.emplace_back();
  register_cell(name, Kind::kGauge, &owned_gauges_.back());
  return owned_gauges_.back();
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  if (Entry* e = find_entry(name, Kind::kHistogram)) {
    return *static_cast<LatencyHistogram*>(e->cell);
  }
  owned_histograms_.emplace_back();
  register_cell(name, Kind::kHistogram, &owned_histograms_.back());
  return owned_histograms_.back();
}

std::string MetricsRegistry::attach_counter(std::string_view name,
                                            Counter& cell) {
  return register_cell(name, Kind::kCounter, &cell);
}

std::string MetricsRegistry::attach_gauge(std::string_view name, Gauge& cell) {
  return register_cell(name, Kind::kGauge, &cell);
}

void MetricsRegistry::detach_prefix(std::string_view prefix) {
  std::erase_if(entries_, [prefix](const Entry& e) {
    return e.name.size() >= prefix.size() &&
           std::string_view(e.name).substr(0, prefix.size()) == prefix;
  });
  by_name_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    by_name_.emplace(entries_[i].name, i);
  }
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Entry* e = find_entry(name, Kind::kCounter);
  return e ? static_cast<const Counter*>(e->cell) : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Entry* e = find_entry(name, Kind::kGauge);
  return e ? static_cast<const Gauge*>(e->cell) : nullptr;
}

const LatencyHistogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const Entry* e = find_entry(name, Kind::kHistogram);
  return e ? static_cast<const LatencyHistogram*>(e->cell) : nullptr;
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kCounter) out.push_back(e.name);
  }
  return out;
}

void MetricsRegistry::reset_values() {
  for (Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter: static_cast<Counter*>(e.cell)->reset(); break;
      case Kind::kGauge: static_cast<Gauge*>(e.cell)->reset(); break;
      case Kind::kHistogram:
        static_cast<LatencyHistogram*>(e.cell)->reset();
        break;
    }
  }
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  out.reserve(entries_.size() * 2);
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        out.emplace_back(
            e.name,
            static_cast<double>(static_cast<const Counter*>(e.cell)->value()));
        break;
      case Kind::kGauge: {
        const auto* g = static_cast<const Gauge*>(e.cell);
        out.emplace_back(e.name, static_cast<double>(g->value()));
        out.emplace_back(e.name + ".max", static_cast<double>(g->max()));
        break;
      }
      case Kind::kHistogram: {
        const auto* h = static_cast<const LatencyHistogram*>(e.cell);
        out.emplace_back(e.name + ".count",
                         static_cast<double>(h->count()));
        out.emplace_back(e.name + ".p50", h->p50());
        out.emplace_back(e.name + ".p90", h->p90());
        out.emplace_back(e.name + ".p99", h->p99());
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent),
                        ' ');
  Snapshot snap = snapshot();
  std::string out = "{";
  for (std::size_t i = 0; i < snap.size(); ++i) {
    char num[64];
    // %.17g round-trips doubles; counters print as integers.
    if (snap[i].second ==
        static_cast<double>(static_cast<std::int64_t>(snap[i].second))) {
      std::snprintf(num, sizeof(num), "%lld",
                    static_cast<long long>(snap[i].second));
    } else {
      std::snprintf(num, sizeof(num), "%.6g", snap[i].second);
    }
    out += "\n" + pad + "  \"" + snap[i].first + "\": " + num +
           (i + 1 < snap.size() ? "," : "");
  }
  out += "\n" + pad + "}";
  return out;
}

}  // namespace dnsguard::obs
