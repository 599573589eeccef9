// Observability primitives: zero-allocation-on-hot-path metric cells
// behind a MetricsRegistry with stable string handles.
//
// Design rules, in order:
//
//   1. The hot path touches a *cell* (Counter / Gauge) directly. An
//      increment is one add on a plain integer — no hashing, no string
//      compare, no allocation, no branch on "is metrics enabled".
//   2. Every cell lives in its subsystem's own stats struct (GuardStats,
//      TcpStackStats, LimiterStats, ...) and is *attached* to the registry
//      by name (attach_counter() / attach_gauge()): the struct field IS the
//      registered cell, with no extra copy. The registry owns no cell.
//   3. reset_values() is the one measurement-window reset: it zeroes every
//      attached counter and collapses every gauge's high-water mark.
//   4. Export is cold: snapshot() / to_json() walk the name table in
//      registration order.
//
// Counter deliberately mimics a plain std::uint64_t (operator++, +=,
// implicit conversion) so converting a `std::uint64_t requests = 0;`
// stats field to a Counter changes no call sites.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dnsguard::obs {

/// Monotonic event count. Layout-compatible drop-in for a uint64 tally.
class Counter {
 public:
  constexpr Counter() = default;
  constexpr Counter(std::uint64_t v) : value_(v) {}  // NOLINT(runtime/explicit)

  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

  // uint64-tally compatibility.
  constexpr operator std::uint64_t() const noexcept { return value_; }
  Counter& operator++() noexcept { ++value_; return *this; }
  std::uint64_t operator++(int) noexcept { return value_++; }
  Counter& operator+=(std::uint64_t n) noexcept { value_ += n; return *this; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, open connections). Tracks the
/// high-water mark since the last reset alongside the current value.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(std::int64_t d) noexcept { set(value_ + d); }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }
  /// Clears the high-water mark; the current level carries over.
  void reset() noexcept { max_ = value_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Name -> cell directory over cells that subsystems own and attach;
/// lookups happen at registration/export time only, never on the hot path.
///
/// Names use dotted paths ("guard.spoofs_dropped", "tcp.proxy.resets_sent").
/// Attaching over an existing name gets a "#2" suffix so two instances of
/// one subsystem cannot silently alias each other's cells.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a cell its subsystem owns. The cell must outlive this
  /// registry. Returns the name the cell was registered under (may carry
  /// a "#N" suffix on collision).
  std::string attach_counter(std::string_view name, Counter& cell);
  std::string attach_gauge(std::string_view name, Gauge& cell);

  /// Cold-path lookup (tests, exporters). nullptr if absent or wrong kind.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Names of every registered counter, in registration order. Cold path:
  /// the time-series sampler enumerates these once at start().
  [[nodiscard]] std::vector<std::string> counter_names() const;

  /// The one measurement-window reset: zeroes every counter and collapses
  /// every gauge's high-water mark to its current level.
  void reset_values();

  /// Flat name -> value view in registration order. Gauges contribute
  /// "<name>" and "<name>.max"; counters contribute their value.
  using Snapshot = std::vector<std::pair<std::string, double>>;
  [[nodiscard]] Snapshot snapshot() const;

  /// The snapshot as a JSON object, e.g. {"guard.spoofs_dropped": 12, ...}.
  /// `indent` spaces of leading indentation per line.
  [[nodiscard]] std::string to_json(int indent = 2) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge };
  struct Entry {
    std::string name;
    Kind kind;
    void* cell;  // Counter* / Gauge*
  };

  const Entry* find_entry(std::string_view name, Kind kind) const;
  std::string register_cell(std::string_view name, Kind kind, void* cell);

  std::vector<Entry> entries_;  // registration order
  std::unordered_map<std::string, std::size_t> by_name_;  // -> entries_ index
};

}  // namespace dnsguard::obs
