// Time-series sampling: per-window counter deltas over simulated time.
//
// The paper's evaluation (Figs. 5-7) is time-resolved — response rate and
// latency *during* the attack window — so end-of-run totals are not
// enough. TimeSeriesSampler snapshots a chosen set of registry counters
// at every window boundary (default 1 s of sim time) and retains a
// bounded ring of per-window deltas. Benches export the ring as a
// "timeseries" JSON section; the anomaly detector (anomaly.h) consumes
// the same windows online via the on_window callback.
//
// The sampler is sim-clock-driven but does not know about the event
// queue: the owner (Simulator::start_timeseries) schedules the recurring
// boundary event and calls sample(now). Sampling only *reads* counters
// and charges no simulated CPU, so enabling it never changes virtual-time
// bench results.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace dnsguard::obs {

class TimeSeriesSampler {
 public:
  /// One closed window: deltas[i] is how much series_names()[i] grew
  /// during [start, end). Rates are deltas[i] / (end - start).seconds().
  struct Window {
    SimTime start{};
    SimTime end{};
    std::vector<std::uint64_t> deltas;
  };

  /// Selects a counter to track. Call before start(); names that do not
  /// resolve in the registry at start() are silently skipped (the series
  /// list is whatever resolved, see series_names()). With no add_counter()
  /// calls, start() tracks every counter registered at that moment.
  void add_counter(std::string name) { wanted_.push_back(std::move(name)); }

  /// Resolves series against `registry`, opens the first window at `now`,
  /// and begins retaining up to `capacity` windows (oldest overwritten).
  /// The registry cells must outlive the sampler's run.
  void start(const MetricsRegistry& registry, SimTime now,
             SimDuration window = seconds(1), std::size_t capacity = 1024);
  void stop() { running_ = false; }
  [[nodiscard]] bool running() const { return running_; }

  /// When the currently open window closes (the owner schedules its
  /// boundary event at this time).
  [[nodiscard]] SimTime next_boundary() const { return open_start_ + window_; }

  /// Closes the window ending at `now`: computes per-series deltas since
  /// the previous boundary, appends to the ring, fires on_window, and
  /// opens the next window. Counter resets between boundaries (registry
  /// reset_values) clamp the delta to the post-reset value, never negative.
  void sample(SimTime now);

  [[nodiscard]] const std::vector<std::string>& series_names() const {
    return names_;
  }
  /// Index of a series by name, or -1.
  [[nodiscard]] int series_index(std::string_view name) const;

  [[nodiscard]] std::size_t window_count() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }
  /// Retained windows, oldest first.
  [[nodiscard]] std::vector<Window> windows() const;

  /// Fired after each window closes, before the next opens.
  using WindowFn = std::function<void(const Window&)>;
  void set_on_window(WindowFn fn) { on_window_ = std::move(fn); }

  /// The ring as a JSON object:
  ///   {"window_seconds": 1.0, "series": [...],
  ///    "windows": [{"t_start_s": 0.0, "t_end_s": 1.0,
  ///                 "deltas": [12, 0, ...]}, ...]}
  /// `indent` spaces of leading indentation per line.
  [[nodiscard]] std::string to_json(int indent = 2) const;

 private:
  std::vector<std::string> wanted_;     // add_counter() selections
  std::vector<std::string> names_;      // resolved series, ring column order
  std::vector<const Counter*> cells_;   // resolved cells, aligned to names_
  std::vector<std::uint64_t> prev_;     // value at the last boundary
  std::vector<Window> ring_;
  std::uint64_t head_ = 0;              // windows ever closed
  SimTime open_start_{};
  SimDuration window_{};
  bool running_ = false;
  WindowFn on_window_;
};

}  // namespace dnsguard::obs
