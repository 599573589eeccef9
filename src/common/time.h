// Simulated-time types.
//
// The discrete-event simulator advances a virtual clock; all latencies,
// TTLs, token-bucket refills and timeout timers are expressed in SimTime.
// We use integer nanoseconds rather than doubles so event ordering is exact
// and runs are reproducible.
#pragma once

#include <cstdint>
#include <string>

namespace dnsguard {

/// A point in simulated time, in nanoseconds since simulation start.
struct SimTime {
  std::int64_t ns = 0;

  constexpr auto operator<=>(const SimTime&) const = default;
};

/// A span of simulated time, in nanoseconds.
struct SimDuration {
  std::int64_t ns = 0;

  constexpr auto operator<=>(const SimDuration&) const = default;

  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(ns) / 1e9;
  }
  [[nodiscard]] constexpr double millis() const {
    return static_cast<double>(ns) / 1e6;
  }
};

constexpr SimDuration nanoseconds(std::int64_t n) { return {n}; }
constexpr SimDuration microseconds(std::int64_t us) { return {us * 1000}; }
constexpr SimDuration milliseconds(std::int64_t ms) { return {ms * 1000000}; }
constexpr SimDuration seconds(std::int64_t s) { return {s * 1000000000}; }
constexpr SimDuration seconds_f(double s) {
  return {static_cast<std::int64_t>(s * 1e9)};
}

constexpr SimTime operator+(SimTime t, SimDuration d) { return {t.ns + d.ns}; }
constexpr SimTime operator-(SimTime t, SimDuration d) { return {t.ns - d.ns}; }
constexpr SimDuration operator-(SimTime a, SimTime b) { return {a.ns - b.ns}; }
constexpr SimDuration operator+(SimDuration a, SimDuration b) {
  return {a.ns + b.ns};
}
constexpr SimDuration operator-(SimDuration a, SimDuration b) {
  return {a.ns - b.ns};
}
constexpr SimDuration operator*(SimDuration d, std::int64_t k) {
  return {d.ns * k};
}
constexpr SimDuration operator*(std::int64_t k, SimDuration d) {
  return {d.ns * k};
}

/// Renders a time as "12.345ms" / "1.2s" for logs and reports.
std::string format_duration(SimDuration d);

}  // namespace dnsguard
