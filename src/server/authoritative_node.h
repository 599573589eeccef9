// Authoritative name server simulation nodes.
//
// AuthoritativeServerNode models a BIND-like ANS: full zone-based answer
// logic over UDP and TCP, with a calibrated CPU cost model. The paper
// measures BIND 9.3.1 at ~14K UDP queries/sec and ~2.2K TCP queries/sec
// on the testbed hardware (§IV.C); the costs in authoritative_node.cpp
// reproduce those capacities.
//
// AnsSimulatorNode models the paper's stripped-down "ANS simulator" that
// "responds to each DNS request with the same answer" at ~110K
// requests/sec (§IV.D) — used to stress the DNS guard without BIND being
// the bottleneck.
#pragma once

#include <memory>
#include <optional>

#include "dns/message.h"
#include "obs/drop_reason.h"
#include "server/zone.h"
#include "sim/node.h"
#include "tcp/tcp_stack.h"

namespace dnsguard::server {

/// Counter cells so an ANS node's tallies export through the simulator's
/// MetricsRegistry ("server.ans.udp_queries", ...) without copying.
struct AnsStats {
  obs::Counter udp_queries;
  obs::Counter tcp_queries;
  obs::Counter responses;
  obs::Counter truncated;
  obs::Counter malformed;

  void bind(obs::MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_counter(p + ".udp_queries", udp_queries);
    registry.attach_counter(p + ".tcp_queries", tcp_queries);
    registry.attach_counter(p + ".responses", responses);
    registry.attach_counter(p + ".truncated", truncated);
    registry.attach_counter(p + ".malformed", malformed);
  }
};

class AuthoritativeServerNode : public sim::Node {
 public:
  struct Config {
    net::Ipv4Address address;
    /// When set, every record in every response is rewritten to this TTL
    /// (Fig. 5 config: "TTL of each DNS response is configured to be 0 to
    /// disable DNS caching").
    std::optional<std::uint32_t> ttl_override;
  };

  AuthoritativeServerNode(sim::Simulator& sim, std::string name,
                          Config config);

  void add_zone(Zone zone) { engine_.add_zone(std::move(zone)); }
  [[nodiscard]] const AuthoritativeEngine& engine() const { return engine_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const AnsStats& ans_stats() const { return ans_stats_; }

  /// Produces the response message for `query` (shared by UDP/TCP paths;
  /// public so the guard can consult the engine in unit tests).
  [[nodiscard]] dns::Message answer(const dns::Message& query,
                                    bool via_tcp) const;

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  void apply_ttl_override(dns::Message& m) const;
  void on_tcp_message(tcp::ConnId conn, BytesView message);

  Config config_;
  AuthoritativeEngine engine_;
  std::unique_ptr<tcp::TcpStack> tcp_;
  AnsStats ans_stats_;
  obs::DropCounters drops_;  // bound as "server.ans.drop.<reason>"
  SimDuration pending_cost_{};  // cost accrued by TCP callbacks per packet
};

/// The paper's high-throughput ANS simulator: answers every query with one
/// fixed A record, no zone logic, at ~110K req/s.
class AnsSimulatorNode : public sim::Node {
 public:
  struct Config {
    net::Ipv4Address address;
    net::Ipv4Address answer_address{192, 0, 2, 1};
    std::uint32_t answer_ttl = 60;
  };

  AnsSimulatorNode(sim::Simulator& sim, std::string name, Config config)
      : sim::Node(sim, std::move(name)), config_(config) {
    set_profile_stage(obs::prof::Stage::kAnsService);
    ans_stats_.bind(sim.metrics(), "server.ans_sim");
    drops_.bind(sim.metrics(), "server.ans_sim");
  }

  [[nodiscard]] const AnsStats& ans_stats() const { return ans_stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  Config config_;
  /// Each query is decoded into this message and answered in place, so
  /// steady-state service reuses its sections instead of allocating.
  dns::Message rx_;
  AnsStats ans_stats_;
  obs::DropCounters drops_;  // bound as "server.ans_sim.drop.<reason>"
};

}  // namespace dnsguard::server
