#include "obs/anomaly.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dnsguard::obs {
namespace {

/// EWMA smoothing for the baseline's mean and deviation.
constexpr double kAlpha = 0.25;
/// Threshold multiplier on the deviation.
constexpr double kDeviations = 8.0;

}  // namespace

double AnomalyDetector::threshold() const {
  const double spread = dev_ > cfg_.dev_floor ? dev_ : cfg_.dev_floor;
  return mean_ + kDeviations * spread;
}

void AnomalyDetector::reset() {
  mean_ = 0.0;
  dev_ = 0.0;
  seen_ = 0;
  streak_ = 0;
  in_anomaly_ = false;
}

AnomalyDetector::Signal AnomalyDetector::update(double value) {
  ++seen_;
  if (seen_ == 1) {
    mean_ = value;
    dev_ = 0.0;
    return Signal::kNone;
  }

  const auto absorb = [&] {
    const double err = std::abs(value - mean_);
    mean_ = kAlpha * value + (1.0 - kAlpha) * mean_;
    dev_ = kAlpha * err + (1.0 - kAlpha) * dev_;
  };

  if (seen_ <= cfg_.warmup_windows) {
    absorb();
    return Signal::kNone;
  }

  const bool above = value > threshold();
  Signal sig = Signal::kNone;
  if (!in_anomaly_) {
    if (above) {
      if (++streak_ >= cfg_.onset_consecutive) {
        in_anomaly_ = true;
        streak_ = 0;
        sig = Signal::kOnset;
      }
    } else {
      streak_ = 0;
      // Only quiet windows feed the baseline: an above-threshold window —
      // even one that has not yet confirmed onset — must not inflate it.
      absorb();
    }
  } else {
    // Baseline frozen while in anomaly.
    if (!above) {
      if (++streak_ >= cfg_.offset_consecutive) {
        in_anomaly_ = false;
        streak_ = 0;
        sig = Signal::kOffset;
        absorb();
      }
    } else {
      streak_ = 0;
    }
  }
  return sig;
}

void AttackMonitor::watch(std::string series_name) {
  wanted_.push_back(std::move(series_name));
}

void AttackMonitor::set_discriminator(DiscriminatorConfig cfg) {
  disc_ = std::move(cfg);
  discriminate_ = true;
}

namespace {
void resolve_indices(const TimeSeriesSampler& sampler,
                     const std::vector<std::string>& names,
                     std::vector<int>& out,
                     std::vector<std::string>& missing) {
  out.clear();
  for (const std::string& name : names) {
    const int idx = sampler.series_index(name);
    if (idx >= 0) {
      out.push_back(idx);
    } else {
      missing.push_back(name);
    }
  }
}
}  // namespace

std::vector<std::string> AttackMonitor::bind(TimeSeriesSampler& sampler,
                                             MetricsRegistry& registry,
                                             std::string_view gauge_name) {
  std::vector<std::string> missing;
  series_.clear();
  for (const std::string& name : wanted_) {
    const int idx = sampler.series_index(name);
    if (idx < 0) {
      missing.push_back(name);
      continue;
    }
    series_.push_back(Watched{name, idx, AnomalyDetector(cfg_)});
  }
  resolve_indices(sampler, disc_.malicious_series, malicious_idx_, missing);
  resolve_indices(sampler, disc_.load_series, load_idx_, missing);
  resolve_indices(sampler, disc_.source_series, source_idx_, missing);
  registry.attach_gauge(gauge_name, under_attack_);
  under_attack_.set(0);
  if (discriminate_) {
    registry.attach_gauge("anomaly.flash_crowd", flash_crowd_);
    flash_crowd_.set(0);
  }
  sampler.set_on_window(
      [this](const TimeSeriesSampler::Window& w) { on_window(w); });
  return missing;
}

double AttackMonitor::sum_deltas(const TimeSeriesSampler::Window& w,
                                 const std::vector<int>& indices) {
  double total = 0.0;
  for (int idx : indices) {
    total += static_cast<double>(w.deltas[static_cast<std::size_t>(idx)]);
  }
  return total;
}

void AttackMonitor::on_window(const TimeSeriesSampler::Window& w) {
  // Discriminator signals for this window (shared by every watched series
  // that fires in it): how much of the guard's work was provably
  // malicious, and how many first-contact sources appeared.
  double mix = 0.0;
  double growth = 0.0;
  if (discriminate_) {
    const double malicious = sum_deltas(w, malicious_idx_);
    const double load = sum_deltas(w, load_idx_);
    mix = load > 0.0 ? malicious / load : 0.0;
    growth = sum_deltas(w, source_idx_);
  }

  for (Watched& s : series_) {
    const double value =
        static_cast<double>(w.deltas[static_cast<std::size_t>(s.index)]);
    const double thresh = s.detector.threshold();
    const AnomalyDetector::Signal sig = s.detector.update(value);
    if (sig == AnomalyDetector::Signal::kNone) continue;
    const bool onset = sig == AnomalyDetector::Signal::kOnset;
    if (onset) {
      // A load surge that is mostly verified-clean traffic is a flash
      // crowd, not an attack; the drop taxonomy is what betrays a flood
      // (spoofed cookies never verify, so the malicious mix jumps).
      s.active_kind = discriminate_ && mix < disc_.attack_mix_threshold
                          ? Kind::kFlashCrowd
                          : Kind::kAttack;
    }
    const Kind kind = s.active_kind;
    int& level = kind == Kind::kAttack ? attacking_ : flash_crowds_;
    level += onset ? 1 : -1;
    under_attack_.set(attacking_ > 0 ? 1 : 0);
    flash_crowd_.set(flash_crowds_ > 0 ? 1 : 0);
    events_.push_back(
        Event{w.end, s.name, onset, value, thresh, kind, mix, growth});
    if (onset && on_onset_) on_onset_(events_.back());
  }
}

std::string AttackMonitor::events_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent),
                        ' ');
  std::string out = "[";
  bool first = true;
  char buf[256];
  for (const Event& e : events_) {
    std::snprintf(
        buf, sizeof(buf),
        "%s\n%s  {\"t_s\": %.6f, \"series\": \"%s\", "
        "\"onset\": %s, \"value\": %.3f, \"threshold\": %.3f, "
        "\"kind\": \"%s\", \"malicious_mix\": %.3f, "
        "\"source_growth\": %.0f}",
        first ? "" : ",", pad.c_str(), static_cast<double>(e.at.ns) / 1e9,
        e.series.c_str(), e.onset ? "true" : "false", e.value, e.threshold,
        std::string(kind_name(e.kind)).c_str(), e.malicious_mix,
        e.source_growth);
    out += buf;
    first = false;
  }
  out += first ? "]" : "\n" + pad + "]";
  return out;
}

void FlightRecorder::add_section(std::string name, SectionFn fn) {
  sections_.emplace_back(std::move(name), std::move(fn));
}

std::string FlightRecorder::render(std::string_view label,
                                   SimTime now) const {
  char buf[96];
  std::string out = "{\n  \"label\": \"";
  out.append(label);
  std::snprintf(buf, sizeof(buf), "\",\n  \"sim_time_s\": %.6f",
                static_cast<double>(now.ns) / 1e9);
  out += buf;
  for (const auto& [name, fn] : sections_) {
    out += ",\n  \"" + name + "\": ";
    out += fn ? fn() : "null";
  }
  out += "\n}\n";
  return out;
}

std::string FlightRecorder::dump(std::string_view label, SimTime now) {
  std::string dir = dir_;
  if (dir.empty()) {
    const char* env = std::getenv("DNSGUARD_FLIGHTREC_DIR");
    dir = env != nullptr && *env != '\0' ? env : ".";
  }
  std::string safe;
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    safe.push_back(ok ? c : '_');
  }
  char name[64];
  std::snprintf(name, sizeof(name), "/flightrec_%s_%zu.json", safe.c_str(),
                seq_);
  const std::string path = dir + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const std::string doc = render(label, now);
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  ++seq_;
  return path;
}

}  // namespace dnsguard::obs
