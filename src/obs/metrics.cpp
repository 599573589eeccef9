#include "obs/metrics.h"

#include <cstdio>

namespace dnsguard::obs {

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

std::string MetricsRegistry::attach_counter(std::string_view name,
                                            Counter& cell) {
  return register_cell(name, Kind::kCounter, &cell);
}

std::string MetricsRegistry::attach_gauge(std::string_view name, Gauge& cell) {
  return register_cell(name, Kind::kGauge, &cell);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Entry* e = find_entry(name, Kind::kCounter);
  return e ? static_cast<const Counter*>(e->cell) : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Entry* e = find_entry(name, Kind::kGauge);
  return e ? static_cast<const Gauge*>(e->cell) : nullptr;
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
