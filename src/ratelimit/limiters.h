// The DNS guard's two rate limiters (Fig. 4).
//
// Rate-Limiter1 sits on the *cookie response* path: before the guard sends
// any unverified requester a cookie (or a fabricated referral / truncation
// reply), the response must pass this limiter. It tracks top requesters
// with a Space-Saving sketch and throttles per-address cookie responses,
// so an attacker cannot use the guard itself as a traffic reflector
// toward a spoofed victim.
//
// Rate-Limiter2 sits on the *validated request* path: requests whose
// cookie checked out are real, so per-source-address token buckets can
// fairly cap each requester at a nominal rate — the defense against
// non-spoofed (zombie/botnet) floods and against cookie-probing (§III.G).
#pragma once

#include <cstdint>
#include <memory>

#include "common/bounded_table.h"
#include "common/time.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "ratelimit/token_bucket.h"
#include "ratelimit/topk.h"

namespace dnsguard::ratelimit {

/// Counter cells so a limiter's tallies can be attached directly to a
/// MetricsRegistry (e.g. "guard.shard0.rl1.throttled") without copying.
struct LimiterStats {
  obs::Counter allowed;
  obs::Counter throttled;

  void bind(obs::MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_counter(p + ".allowed", allowed);
    registry.attach_counter(p + ".throttled", throttled);
  }
};

/// Rate-Limiter1: caps cookie responses per destination address.
class CookieResponseLimiter {
 public:
  struct Config {
    /// Cookie responses allowed per second per tracked top requester.
    double per_address_rate = 100.0;
    double per_address_burst = 20.0;
    /// How many requester addresses the heavy-hitter sketch tracks.
    std::size_t tracker_capacity = 1024;
    /// Addresses below this request count are never throttled — only the
    /// *top* requesters are limited (paper: "tracks the top requesters").
    std::uint64_t heavy_hitter_threshold = 32;
    /// Cap on tracked per-address buckets. Spoofed-source floods used to
    /// grow this map without bound; now the LRU bucket is recycled at
    /// capacity and idle buckets are reaped.
    std::size_t max_buckets = 4096;
    SimDuration bucket_idle_timeout = seconds(10);
  };

  explicit CookieResponseLimiter(Config config)
      : config_(config), buckets_(bucket_config(config)) {
    reset();
  }
  CookieResponseLimiter() : CookieResponseLimiter(Config{}) {}

  /// Should a cookie response toward `requester` be sent at `now`?
  bool allow(net::Ipv4Address requester, SimTime now);

  [[nodiscard]] const LimiterStats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t tracked_buckets() const {
    return buckets_.size();
  }
  [[nodiscard]] const common::BoundedTableStats& table_stats() const {
    return buckets_.stats();
  }
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix) {
    stats_.bind(registry, prefix);
    buckets_.bind_metrics(registry, std::string(prefix) + ".table");
  }
  void reset();

 private:
  static common::BoundedTable<net::Ipv4Address, TokenBucket>::Config
  bucket_config(const Config& c) {
    return {.capacity = c.max_buckets,
            .idle_timeout = c.bucket_idle_timeout,
            .evict_lru_when_full = true};
  }

  Config config_;
  std::unique_ptr<SpaceSaving<net::Ipv4Address>> tracker_;
  common::BoundedTable<net::Ipv4Address, TokenBucket> buckets_;
  LimiterStats stats_;
};

/// Rate-Limiter2: caps validated (non-spoofed) per-host request rates.
class VerifiedRequestLimiter {
 public:
  struct Config {
    /// Nominal per-host request rate (paper: "usually very low").
    double per_host_rate = 200.0;
    double per_host_burst = 50.0;
    /// Bound on the number of per-host buckets kept (validated hosts are
    /// real, so this table cannot be inflated by spoofing).
    std::size_t max_hosts = 65536;
    /// Hosts idle this long are recycled, so a full table of departed
    /// clients does not lock out new ones forever.
    SimDuration host_idle_timeout = seconds(60);
  };

  explicit VerifiedRequestLimiter(Config config)
      : config_(config), buckets_(bucket_config(config)) {}
  VerifiedRequestLimiter() : VerifiedRequestLimiter(Config{}) {}

  /// Should a validated request from `host` be forwarded at `now`?
  bool allow(net::Ipv4Address host, SimTime now);

  [[nodiscard]] const LimiterStats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const common::BoundedTableStats& table_stats() const {
    return buckets_.stats();
  }
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix) {
    stats_.bind(registry, prefix);
    buckets_.bind_metrics(registry, std::string(prefix) + ".table");
  }
  [[nodiscard]] std::size_t tracked_hosts() const { return buckets_.size(); }

 private:
  static common::BoundedTable<net::Ipv4Address, TokenBucket>::Config
  bucket_config(const Config& c) {
    // Refuse new hosts at the cap rather than evict active ones (§III.G):
    // every entry here represents a *verified* requester.
    return {.capacity = c.max_hosts,
            .idle_timeout = c.host_idle_timeout,
            .evict_lru_when_full = false};
  }

  Config config_;
  common::BoundedTable<net::Ipv4Address, TokenBucket> buckets_;
  LimiterStats stats_;
};

}  // namespace dnsguard::ratelimit
