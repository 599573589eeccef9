// Observability primitives: zero-allocation-on-hot-path metric cells
// behind a MetricsRegistry with stable string handles.
//
// Design rules, in order:
//
//   1. The hot path touches a *cell* (Counter / Gauge / LatencyHistogram)
//      through a pointer resolved exactly once, at registration. An
//      increment is one add on a plain integer — no hashing, no string
//      compare, no allocation, no branch on "is metrics enabled".
//   2. Cells can live in two places: owned by the registry (created via
//      counter()/gauge()/histogram(), stored in deques so addresses are
//      stable), or embedded in a subsystem's own stats struct and
//      *attached* by name (attach_counter()). Attachment is how the
//      existing per-subsystem stats structs (GuardStats, TcpStackStats,
//      LimiterStats, ...) become registry-visible without an extra copy:
//      the struct field IS the registered cell.
//   3. Export is cold: snapshot() / to_json() walk the name table in
//      registration order. Histograms export count/p50/p90/p99.
//
// Counter deliberately mimics a plain std::uint64_t (operator++, +=,
// implicit conversion) so converting a `std::uint64_t requests = 0;`
// stats field to a Counter changes no call sites.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.h"

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

/// Fixed-bucket log-spaced histogram for latency-like values (nanoseconds).
//
// Buckets are power-of-two octaves split into 4 log-spaced sub-buckets
// (bucket (e, s) covers [2^e + s*2^(e-2), 2^e + (s+1)*2^(e-2))), so the
// relative width of any bucket is <= 2^(1/4) ~ 19% and linear
// interpolation inside the winning bucket keeps percentile estimates
// within a few percent of exact quantiles. Values 0..3 get exact buckets.
// observe() is a bit-scan plus one array increment: no allocation ever.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 256;

  void observe_ns(std::int64_t ns) noexcept {
    if (ns < 0) ns = 0;
    ++count_;
    sum_ns_ += static_cast<std::uint64_t>(ns);
    ++buckets_[bucket_index(static_cast<std::uint64_t>(ns))];
  }
  void observe(SimDuration d) noexcept { observe_ns(d.ns); }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum_ns() const noexcept { return sum_ns_; }
  [[nodiscard]] double mean_ns() const noexcept {
    return count_ ? static_cast<double>(sum_ns_) /
                        static_cast<double>(count_)
                  : 0.0;
  }

  /// Estimated p-th percentile in nanoseconds, p in [0, 100]. Linear
  /// interpolation within the selected bucket; 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p90() const { return percentile(90.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }

  void reset() noexcept {
    buckets_.fill(0);
    count_ = 0;
    sum_ns_ = 0;
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < 4) return static_cast<std::size_t>(v);
    const int exp = 63 - std::countl_zero(v);
    const std::size_t sub = (v >> (exp - 2)) & 3;
    const std::size_t idx = 4 + 4 * static_cast<std::size_t>(exp - 2) + sub;
    return idx < kBuckets ? idx : kBuckets - 1;
  }
  /// Inclusive lower / exclusive upper value bound of a bucket.
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t idx) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t idx) noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

/// Name -> cell directory. Cells are either owned (stable addresses in
/// deques) or attached references into subsystem stats structs; lookups
/// happen at registration/export time only, never on the hot path.
///
/// Names use dotted paths ("guard.spoofs_dropped", "tcp.proxy.resets_sent").
/// Registering an existing name of the same kind returns the same cell
/// (idempotent); attaching over an existing name gets a "#2" suffix so two
/// instances of one subsystem cannot silently alias each other's cells.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Creates (or finds) a registry-owned cell.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Registers an externally-owned cell. The cell must outlive this
  /// registry (or be removed with detach_prefix). Returns the name the
  /// cell was registered under (may carry a "#N" suffix on collision).
  std::string attach_counter(std::string_view name, Counter& cell);
  std::string attach_gauge(std::string_view name, Gauge& cell);

  /// Drops every registration whose name starts with `prefix` (attached
  /// cells only become unreachable; owned cells also stay allocated so
  /// outstanding handles never dangle).
  void detach_prefix(std::string_view prefix);

  /// Cold-path lookup (tests, exporters). nullptr if absent or wrong kind.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram* find_histogram(
      std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Names of every registered counter, in registration order. Cold path:
  /// the time-series sampler enumerates these once at start().
  [[nodiscard]] std::vector<std::string> counter_names() const;

  /// Zeroes every registered cell (start of a measurement window).
  void reset_values();

  /// Flat name -> value view in registration order. Gauges contribute
  /// "<name>" and "<name>.max"; histograms "<name>.count", ".p50", ".p90",
  /// ".p99" (nanoseconds). Counters contribute their value.
  using Snapshot = std::vector<std::pair<std::string, double>>;
  [[nodiscard]] Snapshot snapshot() const;

  /// The snapshot as a JSON object, e.g. {"guard.spoofs_dropped": 12, ...}.
  /// `indent` spaces of leading indentation per line.
  [[nodiscard]] std::string to_json(int indent = 2) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind;
    void* cell;  // Counter* / Gauge* / LatencyHistogram*
  };

  Entry* find_entry(std::string_view name, Kind kind);
  const Entry* find_entry(std::string_view name, Kind kind) const;
  std::string register_cell(std::string_view name, Kind kind, void* cell);

  std::deque<Counter> owned_counters_;
  std::deque<Gauge> owned_gauges_;
  std::deque<LatencyHistogram> owned_histograms_;
  std::vector<Entry> entries_;  // registration order
  std::unordered_map<std::string, std::size_t> by_name_;  // -> entries_ index
};

}  // namespace dnsguard::obs
