// StubResolverNode: the end-host stub resolver of Fig. 1.
//
// A stub is "not sophisticated enough to do everything that a local
// recursive server can": it just sends a recursion-desired query to its
// configured LRS and retries on timeout. Used by the examples and the
// end-to-end integration tests to drive whole-stack resolutions.
#pragma once

#include <functional>
#include <unordered_map>

#include "dns/message.h"
#include "obs/drop_reason.h"
#include "sim/node.h"

namespace dnsguard::server {

class StubResolverNode : public sim::Node {
 public:
  struct Config {
    net::Ipv4Address address;
    net::Ipv4Address lrs_address;
    SimDuration timeout = seconds(2);
    int max_retries = 2;
    SimDuration per_packet_cost = microseconds(2);
  };

  struct Result {
    bool ok = false;
    dns::Rcode rcode = dns::Rcode::ServFail;
    std::vector<dns::ResourceRecord> answers;
    SimDuration elapsed{};
  };
  using Callback = std::function<void(const Result&)>;

  StubResolverNode(sim::Simulator& sim, std::string name, Config config)
      : sim::Node(sim, std::move(name)), config_(config) {
    set_profile_stage(obs::prof::Stage::kDriverService);
    drops_.bind(this->sim().metrics(), "stub");
  }

  /// Issues a recursive query to the configured LRS.
  void lookup(const dns::DomainName& qname, dns::RrType qtype, Callback cb);

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t answered = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
  };
  [[nodiscard]] const Stats& stub_stats() const { return stats_; }

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  struct Pending {
    dns::Question question;
    Callback callback;
    SimTime started_at;
    int retries = 0;
    std::uint64_t generation = 0;
  };

  void send_query(std::uint16_t id);
  void on_timeout(std::uint16_t id, std::uint64_t generation);

  Config config_;
  Stats stats_;
  obs::DropCounters drops_;  // bound as "stub.drop.<reason>"
  // DNSGUARD_LINT_ALLOW(bounded): keyed by the stub's own 16-bit query
  // ids (self-chosen, not attacker input), so the keyspace caps it at
  // 65535 entries
  std::unordered_map<std::uint16_t, Pending> pending_;
  std::uint16_t next_id_ = 1;
  /// Every timer arms with a fresh generation from this node-wide count:
  /// a 16-bit id can come round within a timeout, and a per-entry count
  /// restarting at 0 would let the old timer match the new query.
  std::uint64_t last_generation_ = 0;
};

}  // namespace dnsguard::server
