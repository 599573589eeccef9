// RemoteGuardNode — the DNS guard deployed in front of an authoritative
// name server (the paper's core contribution, §III, Fig. 4).
//
// The guard is a router-mode firewall: the simulator routes the ANS's
// public address (and, for the fabricated-IP variant, its whole subnet)
// to this node, and the ANS's gateway points back at it, so every packet
// in both directions transits — and is charged to — the guard's CPU.
//
// Pipeline (Fig. 4):
//
//     UDP req ──> cookie checker ──valid──> Rate-Limiter2 ──> ANS
//                     │ all-zero/absent
//                     ▼
//              cookie generator (scheme-specific response)
//                     │
//                     ▼
//              Rate-Limiter1 ──> requester   (reflector protection)
//
//     TCP req ──> TCP proxy (SYN cookies, conn monitor, token buckets)
//                     │ framed DNS query
//                     ▼
//              Rate-Limiter2 ──> ANS (as UDP; response converted back)
//
// Spoof detection activates only above a request-rate threshold (§IV.C);
// below it the guard is a plain forwarder.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bounded_table.h"
#include "dns/message.h"
#include "guard/cookie_engine.h"
#include "obs/drop_reason.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "ratelimit/limiters.h"
#include "ratelimit/token_bucket.h"
#include "sim/node.h"
#include "tcp/tcp_stack.h"

namespace dnsguard::guard {

enum class Scheme : std::uint8_t {
  PassThrough,     // no spoof detection (baseline / disabled)
  NsName,          // §III.B.1 — cookie in fabricated NS name (referrals)
  FabricatedNsIp,  // §III.B.2 — cookie in NS name + fabricated IP
  TcpRedirect,     // §III.C — truncation redirect + kernel TCP proxy
  ModifiedDns,     // §III.D — explicit TXT cookie extension
};

[[nodiscard]] std::string scheme_name(Scheme s);
/// Snake-case metric token ("ns_name", "tcp_redirect", ...).
[[nodiscard]] std::string_view scheme_token(Scheme s);
inline constexpr std::size_t kSchemeCount = 5;

/// Counter cells; attached to the simulator's registry under "guard.*".
struct GuardStats {
  obs::Counter requests_seen;
  obs::Counter forwarded_inactive;
  obs::Counter cookies_minted;
  obs::Counter cookie_checks;
  obs::Counter spoofs_dropped;
  obs::Counter verified_curr_gen;  // cookie verified against current key
  obs::Counter verified_prev_gen;  // cookie verified against previous key
  obs::Counter rl1_throttled;
  obs::Counter rl2_throttled;
  obs::Counter forwarded_to_ans;
  obs::Counter responses_relayed;
  obs::Counter fabricated_referrals;
  obs::Counter cookie_replies;   // modified-DNS msg3 + fabricated-IP msg6
  obs::Counter tc_redirects;
  obs::Counter proxy_queries;
  obs::Counter proxy_conn_throttled;
  obs::Counter malformed;
  obs::Counter key_rotations;

  void bind(obs::MetricsRegistry& registry, std::string_view prefix);
};

class RemoteGuardNode : public sim::Node {
 public:
  struct CostModel {
    /// Per packet received or emitted (header processing, routing).
    SimDuration packet = nanoseconds(900);
    /// Per cookie computation/verification (one MD5, §III.E).
    SimDuration cookie = nanoseconds(1200);
    /// Per DNS message synthesized or rewritten.
    SimDuration transform = nanoseconds(760);
    /// Extra bookkeeping when a spoofed request is dropped.
    SimDuration drop = nanoseconds(120);
    /// Per TCP segment handled by the kernel proxy.
    SimDuration proxy_segment = nanoseconds(2500);
    /// Per proxied TCP connection accepted.
    SimDuration proxy_connection = microseconds(8);
    /// Connection-table management: extra cost per segment per open
    /// connection (drives the Fig. 7(a) concurrency falloff).
    SimDuration proxy_table_per_conn = nanoseconds(2);
  };

  struct Config {
    net::Ipv4Address guard_address;  // NAT source for proxied UDP queries
    net::Ipv4Address ans_address;    // the protected server's public IP
    /// Zone the protected ANS serves (root for a root guard); needed by
    /// the NS-name scheme to restore the next-level question.
    dns::DomainName protected_zone;
    /// Base of the guard-intercepted subnet; fabricated cookie addresses
    /// live in (base, base + r_y].
    net::Ipv4Address subnet_base;
    std::uint32_t r_y = 250;

    Scheme scheme = Scheme::NsName;
    /// Per-requester overrides (the Fig. 5 testbed serves one LRS with
    /// UDP cookies and redirects another to TCP).
    // DNSGUARD_LINT_ALLOW(bounded): operator configuration written once at
    // guard construction, never grown from packet input
    std::unordered_map<net::Ipv4Address, Scheme> per_source_scheme;

    std::uint64_t key_seed = kDefaultKeySeed;
    /// Automatic key rotation period (§III.E suggests weekly; cookies of
    /// the previous generation remain valid for one period, selected by
    /// the cookie's generation bit). Zero disables automatic rotation.
    SimDuration key_rotation_interval{};

    /// Requests/sec above which spoof detection engages; 0 = always on.
    double activation_threshold_rps = 0.0;

    CostModel costs;

    ratelimit::CookieResponseLimiter::Config rl1;
    ratelimit::VerifiedRequestLimiter::Config rl2;

    /// Per-client TCP connection-rate token bucket (§III.C).
    double proxy_conn_rate = 200.0;
    double proxy_conn_burst = 100.0;
    /// Reset proxied TCP connections that have lived this long (§III.C:
    /// 5×RTT); zero turns the limit off.
    SimDuration proxy_max_lifetime{};

    /// Per-source state caps. Every table below is bounded + reaping so a
    /// spoofed-source flood cannot exhaust guard memory (the guard must
    /// never itself become the DoS target it protects against).
    std::size_t pending_table_capacity = 16384;
    /// NAT entries for proxied queries; reaped when the ANS reply never
    /// arrives, LRU-recycled (connection closed) at capacity.
    std::size_t nat_table_capacity = 16384;
    SimDuration nat_ttl = seconds(5);
    /// Per-client TCP connection-rate buckets; idle ones are recycled.
    std::size_t conn_bucket_capacity = 16384;
    /// Monitored proxy TCP connections; the least-recently active one is
    /// reset at the cap (§III.C's connection-removal policy).
    std::size_t proxy_max_connections = 16384;

    /// Shard-per-core model: all per-source state (RL1/RL2 buckets,
    /// pending rewrites, NAT entries, connection buckets) is partitioned
    /// by source hash into this many independent shards. Each shard is
    /// fed by its own lane of an equal share of the receive queue.
    /// With more than one, lanes drain in bursts of up to 32 packets; 1
    /// (the default) keeps the Node's single lane, served one packet at a
    /// time. Table capacities above are totals; each shard gets its share
    /// (rounded up).
    std::size_t num_shards = 1;
  };

  /// `ans` is the protected server node. The constructor does not touch
  /// routing; call install() to take over the ANS's addresses.
  RemoteGuardNode(sim::Simulator& sim, std::string name, Config config,
                  sim::Node* ans);

  /// Installs routes: ANS address (and subnet for the fabricated-IP
  /// variant) + guard address -> this node; ANS gateway -> this node.
  void install(int subnet_prefix_len = 24);
  /// Reverts to direct routing (protection fully removed).
  void uninstall();

  [[nodiscard]] const GuardStats& guard_stats() const { return stats_; }
  /// Per-reason drop tallies ("guard.drop.bad_cookie", ...).
  [[nodiscard]] const obs::DropCounters& drop_counters() const {
    return drops_;
  }
  /// Per-scheme mint/verify/drop tallies.
  struct SchemeCounters {
    obs::Counter minted;
    obs::Counter verified;
    obs::Counter dropped;
  };
  [[nodiscard]] const SchemeCounters& scheme_counters(Scheme s) const {
    return scheme_counters_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] CookieEngine& cookie_engine() { return engine_; }
  [[nodiscard]] bool protection_active() const;
  [[nodiscard]] std::size_t proxy_connections() const {
    return tcp_ ? tcp_->connection_count() : 0;
  }
  /// Shard-0 limiter views (the whole guard when num_shards == 1).
  [[nodiscard]] const ratelimit::CookieResponseLimiter& rl1() const {
    return shards_[0]->rl1;
  }
  [[nodiscard]] const ratelimit::VerifiedRequestLimiter& rl2() const {
    return shards_[0]->rl2;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// NAT-table introspection (tests: collision probing, TTL reaping).
  /// Entries are summed across shards.
  [[nodiscard]] std::size_t nat_entries() const {
    std::size_t total = 0;
    for (const auto& sh : shards_) total += sh->nat.size();
    return total;
  }
  [[nodiscard]] const common::BoundedTableStats& nat_table_stats() const {
    return shards_[0]->nat.stats();
  }
  /// Tests: pin shard 0's next NAT source-port candidate to force
  /// collisions (single-shard guards only).
  void set_next_nat_port(std::uint16_t port) {
    shards_[0]->next_nat_port = port;
  }

 protected:
  SimDuration process(const net::Packet& packet) override;
  [[nodiscard]] std::size_t shard_of(const net::Packet& packet) const override;

 private:
  // Response-rewrite actions awaiting the ANS's reply.
  struct PendingAction {
    enum class Kind {
      RestoreNsName,   // msg5 -> msg6 of Fig. 2(a)
      RelaySourceIp,   // msg9 -> msg10 of Fig. 2(b): reply from COOKIE2
    } kind;
    dns::DomainName fabricated_qname;
    dns::RrType original_qtype = dns::RrType::A;
    net::Ipv4Address reply_src;
  };
  struct PendingKey {
    std::uint16_t qid;
    std::uint32_t requester;
    bool operator==(const PendingKey&) const = default;
  };
  struct PendingKeyHash {
    std::size_t operator()(const PendingKey& k) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.requester) << 16) | k.qid);
    }
  };

  // --- packet paths ---
  void handle_request(const net::Packet& packet, dns::Message& query);
  void handle_ans_response(const net::Packet& packet);
  void handle_proxy_nat_response(const net::Packet& packet);

  // --- scheme handlers (charge their own costs via charge()) ---
  void do_modified_dns(const net::Packet& packet, dns::Message& query,
                       const crypto::Cookie& cookie);
  void do_ns_name(const net::Packet& packet, dns::Message& query);
  void do_fabricated_ns_ip(const net::Packet& packet, dns::Message& query,
                           bool to_subnet);
  void do_tcp_redirect(const net::Packet& packet, dns::Message& query);

  Scheme effective_scheme(net::Ipv4Address src) const;

  void forward_to_ans(const net::Packet& original, const dns::Message& query);
  /// Sends `response` (the decoded request, turned into its reply in
  /// place) back to the requester, from the address it queried.
  void reply(const net::Packet& to, const dns::Message& response);
  void drop_spoof(const net::Packet& packet, Scheme scheme,
                  obs::DropReason reason);
  /// Rate-limiter / proxy / malformed drops (not cookie failures).
  void drop_other(const net::Packet& packet, obs::DropReason reason);
  /// Cookie checker -> Rate-Limiter2 (Fig. 4): charges and counts one
  /// cookie check whose verdict is `vr`, drops a failure as a spoof
  /// (stale vs bad cookie), books a success per scheme and key
  /// generation, then applies RL2. True when the request may proceed.
  [[nodiscard]] bool admit_cookie(const net::Packet& packet, Scheme scheme,
                                  crypto::VerifyResult vr);
  /// Rate-Limiter1 gate in front of every cookie-generator response; a
  /// throttled request is dropped. True when the response may be sent.
  [[nodiscard]] bool pass_rl1(const net::Packet& packet);
  SchemeCounters& scheme_cells(Scheme s) {
    return scheme_counters_[static_cast<std::size_t>(s)];
  }
  void charge(SimDuration d) { cost_ = cost_ + d; }
  void emit(net::Packet p);
  void emit_direct(sim::Node* to, net::Packet p);

  // --- query journeys ---
  // The key of the request currently being processed; set on classify
  // (only when tracking is enabled), cleared per packet. jmark()/jend()
  // are no-ops without it, so the disabled-tracker cost is one branch.
  void jmark(std::string_view stage);
  void jend(std::string_view stage, bool ok);

  // --- TCP proxy ---
  void proxy_on_message(tcp::ConnId conn, BytesView message);
  /// Erases the closed connection's NAT entries, starting at `head`.
  void proxy_on_closed(std::uint32_t head);
  void rotation_loop();

  /// A proxied query's NAT entry. The entries of one connection form a
  /// list whose head port is the connection's tag in the TCP stack, so
  /// that closing the connection erases exactly those entries. All of them
  /// live in the shard of the client's address, and each port identifies
  /// that shard.
  struct NatEntry {
    tcp::ConnId conn;
    std::uint16_t query_id;
    /// Neighbours on the connection's list of NAT ports; 0 ends the list,
    /// since NAT ports start at 20000.
    std::uint16_t prev_port = 0;
    std::uint16_t next_port = 0;
  };

  /// One shard owns every piece of per-source state for its slice of the
  /// address space: RL1/RL2 buckets, pending rewrites, NAT entries (with a
  /// disjoint source-port range) and connection-rate buckets. Shards never
  /// touch each other's tables, so on real hardware each could run on its
  /// own core without locks; in the simulator they share one thread and
  /// stay deterministic.
  struct Shard {
    ratelimit::CookieResponseLimiter rl1;
    ratelimit::VerifiedRequestLimiter rl2;
    common::BoundedTable<PendingKey, PendingAction, PendingKeyHash> pending;
    common::BoundedTable<std::uint16_t, NatEntry> nat;  // by guard src port
    common::BoundedTable<net::Ipv4Address, ratelimit::TokenBucket>
        conn_buckets;
    /// NAT source ports allocated from [port_base, port_limit); the
    /// shard-disjoint ranges partition [20000, 60000).
    std::uint16_t nat_port_base = 20000;
    std::uint16_t nat_port_limit = 60000;
    std::uint16_t next_nat_port = 20000;
  };

  [[nodiscard]] static ratelimit::CookieResponseLimiter::Config divide_rl1(
      ratelimit::CookieResponseLimiter::Config cfg, std::size_t n);
  [[nodiscard]] static ratelimit::VerifiedRequestLimiter::Config divide_rl2(
      ratelimit::VerifiedRequestLimiter::Config cfg, std::size_t n);

  /// The shard owning `ip`'s per-source state (multiply-shift hash).
  [[nodiscard]] std::size_t shard_of_ip(net::Ipv4Address ip) const;
  /// The shard whose NAT port range holds `port`.
  [[nodiscard]] std::size_t shard_of_nat_port(std::uint16_t port) const;
  /// The NAT entry holding `port`, expired or not, with no table side
  /// effects (list fix-ups must not move LRU positions or counters).
  [[nodiscard]] NatEntry* nat_occupant(std::uint16_t port) {
    return shards_[shard_of_nat_port(port)]->nat.occupant(port);
  }
  /// Takes `e` off its connection's list of NAT ports. Every path that
  /// removes a NAT entry calls this, except a close, which drops the
  /// whole list.
  void nat_unlink(const NatEntry& e);

  Config config_;
  sim::Node* ans_;
  CookieEngine engine_;
  /// Every request, proxied query and ANS reply is decoded into this one
  /// message, and the handlers strip, restore and forward it, or turn it
  /// into their reply, in place; its sections stop allocating once they
  /// fit the traffic.
  dns::Message rx_;
  ratelimit::RateEstimator request_rate_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Shard owning the packet currently in process(); set at the top of
  /// process() (always shard 0 for a single-shard guard).
  Shard* cur_shard_ = nullptr;
  std::size_t nat_ports_per_shard_ = 0;

  std::unique_ptr<tcp::TcpStack> tcp_;

  GuardStats stats_;
  std::array<SchemeCounters, kSchemeCount> scheme_counters_;
  obs::DropCounters drops_;
  SimDuration cost_{};
  bool installed_ = false;
  obs::JourneyKey cur_jkey_{};
  bool cur_jkey_valid_ = false;
};

}  // namespace dnsguard::guard
