// Online attack detection over time-series windows, plus the flight
// recorder that captures system state when something goes wrong.
//
// AnomalyDetector is a robust EWMA detector: it keeps an exponentially
// weighted (alpha = 0.25) mean and absolute deviation (a streaming
// stand-in for the MAD) of a per-window series, and flags a window as
// anomalous when the value exceeds
//
//     mean + 8 * max(deviation, floor)
//
// The baseline is FROZEN while in anomaly — a sustained flood must not be
// absorbed into "normal" — and onset/offset require a configurable number
// of consecutive windows (hysteresis), so a single noisy window neither
// raises nor clears an alert.
//
// AttackMonitor wires one detector per watched series onto a
// TimeSeriesSampler's window callback, records onset/offset events in sim
// time, and drives an `under_attack` registry gauge (0/1).
//
// FlightRecorder assembles a post-mortem JSON file from named section
// providers (metrics snapshot, trace rings, time-series windows, open
// journeys — the owner registers whatever it has) and writes it on
// demand: on anomaly onset, or from a gtest failure listener.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace dnsguard::obs {

struct AnomalyConfig {
  double dev_floor = 4.0;  // minimum deviation (series units); absorbs the
                           // near-zero-variance idle baseline
  int warmup_windows = 3;     // windows to learn a baseline before firing
  int onset_consecutive = 1;  // windows above threshold to raise onset
  int offset_consecutive = 2;  // windows below threshold to clear
};

class AnomalyDetector {
 public:
  enum class Signal : std::uint8_t { kNone = 0, kOnset, kOffset };

  explicit AnomalyDetector(AnomalyConfig cfg = {}) : cfg_(cfg) {}

  /// Feeds one window's value; returns the state transition (if any).
  Signal update(double value);

  [[nodiscard]] bool in_anomaly() const { return in_anomaly_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double deviation() const { return dev_; }
  [[nodiscard]] double threshold() const;
  [[nodiscard]] int windows_seen() const { return seen_; }

  void reset();

 private:
  AnomalyConfig cfg_;
  double mean_ = 0.0;
  double dev_ = 0.0;
  int seen_ = 0;
  int streak_ = 0;  // consecutive windows agreeing with a transition
  bool in_anomaly_ = false;
};

/// Classifies a load anomaly: an onset is an *attack* when the guard is
/// doing mostly malicious work (drop-taxonomy deltas dominate the load
/// delta), a *flash crowd* when the surge verifies clean and comes with
/// genuine source-population growth. All inputs are sampler series names
/// resolved at bind(); missing series contribute zero.
struct DiscriminatorConfig {
  /// Summed into the window's "malicious work": spoof/bad-cookie drops,
  /// rate-limiter kills — everything the guard rejected.
  std::vector<std::string> malicious_series;
  /// Summed into the window's offered load (e.g. guard.requests_seen).
  std::vector<std::string> load_series;
  /// First-contact source counters (e.g. limiter table inserts): how many
  /// never-seen sources appeared this window. Both attacks and flash
  /// crowds grow the source population — what separates them is whether
  /// those new sources *verify* (tracked via malicious mix), so this
  /// series is reported on events for forensics rather than thresholded.
  std::vector<std::string> source_series;
  /// An onset classifies as attack when malicious/load exceeds this.
  double attack_mix_threshold = 0.5;
};

/// Watches selected sampler series with one detector each and turns
/// per-window signals into discrete attack onset/offset events.
class AttackMonitor {
 public:
  enum class Kind : std::uint8_t { kAttack = 0, kFlashCrowd };

  struct Event {
    SimTime at{};        // end of the window that triggered the transition
    std::string series;  // which watched series fired
    bool onset = false;  // true = anomaly started, false = subsided
    double value = 0.0;  // the window's value
    double threshold = 0.0;
    Kind kind = Kind::kAttack;   // discriminator verdict (offset events
                                 // carry the kind their onset classified)
    double malicious_mix = 0.0;  // malicious/load in the onset window
    double source_growth = 0.0;  // first-contact sources in that window
  };

  [[nodiscard]] static std::string_view kind_name(Kind k) {
    return k == Kind::kFlashCrowd ? "flash_crowd" : "attack";
  }

  explicit AttackMonitor(AnomalyConfig cfg = {}) : cfg_(cfg) {}

  /// Adds a series (sampler counter name) to watch. Call before bind().
  void watch(std::string series_name);

  /// Enables flash-crowd discrimination. Call before bind(); without it,
  /// every onset classifies as an attack (the legacy binary alarm).
  void set_discriminator(DiscriminatorConfig cfg);

  /// Installs this monitor as `sampler`'s window callback and attaches the
  /// under-attack gauge to `registry`. Returns the watched and
  /// discriminator series the sampler does not have, in the order they
  /// were configured; the monitor runs without them, so a caller that
  /// needs every series fails on a non-empty result.
  [[nodiscard]] std::vector<std::string> bind(
      TimeSeriesSampler& sampler, MetricsRegistry& registry,
      std::string_view gauge_name = "anomaly.under_attack");

  /// True while any watched series is in an *attack*-classified anomaly;
  /// flash-crowd anomalies do NOT raise this (that is the point).
  [[nodiscard]] bool under_attack() const { return attacking_ > 0; }
  [[nodiscard]] bool in_flash_crowd() const { return flash_crowds_ > 0; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t watched() const { return series_.size(); }
  [[nodiscard]] std::size_t onsets(Kind kind) const {
    std::size_t n = 0;
    for (const Event& e : events_) {
      if (e.onset && e.kind == kind) ++n;
    }
    return n;
  }

  /// Fired on every onset event (after it is recorded) — the flight
  /// recorder hook.
  using AnomalyFn = std::function<void(const Event&)>;
  void set_on_onset(AnomalyFn fn) { on_onset_ = std::move(fn); }

  /// The event log as a JSON array of objects.
  [[nodiscard]] std::string events_json(int indent = 2) const;

 private:
  struct Watched {
    std::string name;
    int index = -1;  // sampler series index
    AnomalyDetector detector;
    Kind active_kind = Kind::kAttack;  // classification of open anomaly
  };

  void on_window(const TimeSeriesSampler::Window& w);
  [[nodiscard]] static double sum_deltas(
      const TimeSeriesSampler::Window& w, const std::vector<int>& indices);

  AnomalyConfig cfg_;
  DiscriminatorConfig disc_;
  bool discriminate_ = false;
  std::vector<std::string> wanted_;
  std::vector<Watched> series_;
  std::vector<int> malicious_idx_;  // resolved discriminator columns
  std::vector<int> load_idx_;
  std::vector<int> source_idx_;
  std::vector<Event> events_;
  int attacking_ = 0;      // series currently in attack-classified anomaly
  int flash_crowds_ = 0;   // series currently in flash-classified anomaly
  Gauge under_attack_;
  Gauge flash_crowd_;
  AnomalyFn on_onset_;
};

/// Assembles and writes post-mortem JSON dumps. Section providers are
/// registered by the owner (typically the Simulator: metrics, trace
/// rings, timeseries, journeys); each returns a complete JSON value.
class FlightRecorder {
 public:
  /// Where dump files land. Default: $DNSGUARD_FLIGHTREC_DIR if set,
  /// else the current directory.
  void set_output_dir(std::string dir) { dir_ = std::move(dir); }

  using SectionFn = std::function<std::string()>;
  void add_section(std::string name, SectionFn fn);

  /// Writes "<dir>/flightrec_<label>_<seq>.json" containing
  /// {"label": ..., "sim_time_s": ..., "<section>": <value>, ...}.
  /// Returns the path written, or "" on IO failure.
  std::string dump(std::string_view label, SimTime now);

  /// The same document as a string (tests; no filesystem).
  [[nodiscard]] std::string render(std::string_view label, SimTime now) const;

  [[nodiscard]] std::size_t dumps_written() const { return seq_; }

 private:
  std::string dir_;
  std::vector<std::pair<std::string, SectionFn>> sections_;
  std::size_t seq_ = 0;
};

}  // namespace dnsguard::obs
