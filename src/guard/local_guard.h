// LocalGuardNode — the LRS-side firewall module of the modified-DNS
// scheme (§III.D, Fig. 3).
//
// Deployed "in front of" an unmodified LRS: the simulator routes the
// LRS's address through this node in both directions. For each protected
// ANS the local guard caches one cookie (Table I: "1 cookie per ANS").
//
//   - Outbound query, cookie cached  -> attach TXT cookie, forward (msg 4).
//   - Outbound query, no cookie      -> hold the query, send a copy with an
//     all-zero cookie (msg 2) to request one; on the cookie reply (msg 3)
//     release all held queries with the real cookie attached.
//   - Cookie reply never arrives (no remote guard / RL1 drop): after a
//     timeout the held queries are released without cookies, so an
//     unprotected ANS keeps working — incremental deployability.
//   - Inbound responses: strip/cache any cookie TXT, deliver to the LRS.
//
// The per-ANS maps are capped BoundedTables. A cached cookie expires with
// its TXT record's TTL and a not-capable mark after not_capable_ttl; each
// packet reaps a few slots of both, so over a long run against many ANSs
// the maps hold the live working set (DESIGN.md §10).
#pragma once

#include <deque>

#include "common/bounded_table.h"
#include "dns/message.h"
#include "guard/cookie_engine.h"
#include "obs/drop_reason.h"
#include "obs/metrics.h"
#include "sim/node.h"

namespace dnsguard::guard {

/// Counter cells; attached to the simulator's registry as "local_guard.*".
struct LocalGuardStats {
  obs::Counter queries_with_cookie;
  obs::Counter queries_held;
  obs::Counter cookie_requests;
  obs::Counter cookies_cached;
  obs::Counter released_without_cookie;
  obs::Counter responses_delivered;

  void bind(obs::MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_counter(p + ".queries_with_cookie", queries_with_cookie);
    registry.attach_counter(p + ".queries_held", queries_held);
    registry.attach_counter(p + ".cookie_requests", cookie_requests);
    registry.attach_counter(p + ".cookies_cached", cookies_cached);
    registry.attach_counter(p + ".released_without_cookie",
                            released_without_cookie);
    registry.attach_counter(p + ".responses_delivered", responses_delivered);
  }
};

class LocalGuardNode : public sim::Node {
 public:
  struct Config {
    net::Ipv4Address lrs_address;
    /// How long to wait for a cookie reply before releasing held queries
    /// without cookies.
    SimDuration cookie_request_timeout = milliseconds(500);
    /// Queries held per ANS while its cookie request is out; one more is
    /// dropped and charged to local_guard.drop.state_table_full.
    std::size_t max_held_per_ans = 1024;
    /// How long to remember that an ANS answered without a cookie (i.e.
    /// has no remote guard) before probing again. Incremental deployment:
    /// unguarded ANSs are served plainly with no per-query delay.
    SimDuration not_capable_ttl = seconds(60);
  };

  LocalGuardNode(sim::Simulator& sim, std::string name, Config config,
                 sim::Node* lrs);

  /// Takes over routing for the LRS address and sets the LRS gateway.
  void install();

  [[nodiscard]] const LocalGuardStats& local_stats() const { return stats_; }
  [[nodiscard]] bool has_cookie_for(net::Ipv4Address ans) const;
  /// Current map sizes (tests assert long runs stay bounded).
  [[nodiscard]] std::size_t cookie_cache_size() const {
    return cookies_.size();
  }
  [[nodiscard]] std::size_t not_capable_size() const {
    return not_capable_until_.size();
  }

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  struct HeldBucket {
    std::deque<net::Packet> queries;
    std::uint64_t generation = 0;
    bool request_outstanding = false;
  };

  void handle_outbound(const net::Packet& packet, dns::Message query);
  void handle_inbound(const net::Packet& packet, dns::Message response);
  void release_held(net::Ipv4Address ans, const crypto::Cookie* cookie);
  void flush_bucket(HeldBucket bucket, const crypto::Cookie* cookie);
  void on_cookie_timeout(net::Ipv4Address ans, std::uint64_t generation);

  Config config_;
  sim::Node* lrs_;
  common::BoundedTable<net::Ipv4Address, crypto::Cookie> cookies_;
  common::BoundedTable<net::Ipv4Address, SimTime> not_capable_until_;
  common::BoundedTable<net::Ipv4Address, HeldBucket> held_;
  LocalGuardStats stats_;
  obs::DropCounters drops_;  // bound as "local_guard.drop.<reason>"
  SimDuration cost_{};
  /// Every cookie request's timer arms with a fresh generation from this
  /// node-wide count: an ANS's bucket can be released and re-created
  /// within one timeout, and a per-bucket count restarting at 0 would let
  /// the old timer release the new bucket's queries early.
  std::uint64_t last_generation_ = 0;
};

}  // namespace dnsguard::guard
