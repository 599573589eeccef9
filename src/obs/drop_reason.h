// Drop-reason taxonomy: every packet the system discards is charged to
// exactly one reason. *Which* defense dropped a packet and *why* is the
// primary operational signal of a layered spoofing defense — the paper's
// evaluation is entirely rates-and-reasons, and this enum is the uniform
// vocabulary the guard, TCP proxy, rate limiters and simulator share.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace dnsguard::obs {

enum class DropReason : std::uint8_t {
  kNone = 0,          // not a drop (trace-event filler)
  kBadCookie,         // cookie / cookie-prefix verification failed (spoof)
  kStaleKey,          // failed cookie presented the previous generation's
                      // bit — most likely minted 2+ rotations ago
  kRateLimited1,      // cookie-response limiter (RL1, reflector protection)
  kRateLimited2,      // verified-request limiter (RL2, per-host fairness)
  kSynCookieFail,     // TCP ACK with an invalid SYN cookie
  kProxyConnThrottled,  // per-client TCP connection-rate bucket
  kProxyTimeout,      // proxied connection reaped (idle / 5xRTT lifetime)
  kMalformed,         // undecodable or non-query DNS payload
  kLabelOverflow,     // cookie label would exceed the 63-byte label limit
  kQueueFull,         // receive-queue overflow at a node
  kNoRoute,           // network had no route for the destination
  kLossInjected,      // simulator-injected in-flight loss
  kStateTableFull,    // bounded per-source table refused/recycled an entry
  kUnmatchedResponse,  // response with no matching outstanding query /
                       // NAT entry / pending state (likely spoofed or late)
  kStraySegment,       // TCP segment matching no connection or listener
                       // (RST'd away; spoofed, late, or port-scanning)
  kCount
};

inline constexpr std::size_t kDropReasonCount =
    static_cast<std::size_t>(DropReason::kCount);

/// Stable snake_case name, used as the metric-name suffix.
[[nodiscard]] std::string_view drop_reason_name(DropReason r);

/// One Counter per reason. The cells live here (hot path: one array index
/// + one add); bind() attaches each as "<prefix>.drop.<reason>" so the
/// registry exports the full taxonomy.
class DropCounters {
 public:
  void count(DropReason r, std::uint64_t n = 1) noexcept {
    cells_[static_cast<std::size_t>(r)].inc(n);
  }

  [[nodiscard]] std::uint64_t value(DropReason r) const noexcept {
    return cells_[static_cast<std::size_t>(r)].value();
  }
  /// Total across all real reasons (kNone excluded).
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (std::size_t i = 1; i < kDropReasonCount; ++i) {
      t += cells_[i].value();
    }
    return t;
  }

  /// Attaches every per-reason cell (kNone excluded) under
  /// "<prefix>.drop.<reason>".
  void bind(MetricsRegistry& registry, std::string_view prefix);

 private:
  std::array<Counter, kDropReasonCount> cells_{};
};

}  // namespace dnsguard::obs
