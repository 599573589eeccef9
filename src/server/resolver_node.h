// RecursiveResolverNode: a faithful local recursive server (LRS).
//
// This is a *standard* resolver on purpose: the central claim of the
// paper's DNS-based and TCP-based schemes is transparency — an unmodified
// LRS, by simply following referrals, resolving glueless NS names and
// falling back to TCP on truncation, performs the guard's cookie exchange
// without knowing it (§III.B, §III.C). This implementation therefore
// only speaks RFC 1035: iterative resolution from root hints, a
// TTL-honoring cache, glueless-NS sub-resolution, CNAME chasing, UDP
// retransmission with BIND-like timeouts, and TCP fallback on TC=1.
//
// It serves recursive clients (stub resolvers) over UDP port 53 and also
// exposes a local resolve() API for workload drivers.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bounded_table.h"
#include "dns/message.h"
#include "obs/drop_reason.h"
#include "obs/journey.h"
#include "server/cache.h"
#include "sim/node.h"
#include "tcp/tcp_stack.h"

namespace dnsguard::server {

/// Counter cells; attached to the simulator's registry as "server.lrs.*".
struct ResolverStats {
  obs::Counter client_queries;
  obs::Counter client_responses;
  obs::Counter iterative_queries;
  obs::Counter retransmissions;
  obs::Counter tcp_fallbacks;
  obs::Counter referrals_followed;
  obs::Counter glue_subtasks;
  obs::Counter cname_chases;
  obs::Counter failures;
  obs::Counter completed;

  void bind(obs::MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_counter(p + ".client_queries", client_queries);
    registry.attach_counter(p + ".client_responses", client_responses);
    registry.attach_counter(p + ".iterative_queries", iterative_queries);
    registry.attach_counter(p + ".retransmissions", retransmissions);
    registry.attach_counter(p + ".tcp_fallbacks", tcp_fallbacks);
    registry.attach_counter(p + ".referrals_followed", referrals_followed);
    registry.attach_counter(p + ".glue_subtasks", glue_subtasks);
    registry.attach_counter(p + ".cname_chases", cname_chases);
    registry.attach_counter(p + ".failures", failures);
    registry.attach_counter(p + ".completed", completed);
  }
};

class RecursiveResolverNode : public sim::Node {
 public:
  struct Config {
    net::Ipv4Address address;
    std::vector<net::Ipv4Address> root_hints;
    /// UDP retransmission timeout. BIND's classic 2 s (§IV.C: "BIND-based
    /// LRS uses a large time-out value of 2 seconds").
    SimDuration retry_timeout = seconds(2);
    /// Retransmissions per server before moving to the next server.
    int max_retries = 2;
    /// CPU cost per packet handled (the LRS is never the bottleneck in
    /// the paper's experiments, but its CPU is still modeled).
    SimDuration per_packet_cost = microseconds(5);
    /// When nonzero, advertise EDNS0 with this UDP payload size on every
    /// iterative query (reduces TCP fallbacks for large answers).
    std::uint16_t edns_payload_size = 0;
  };

  /// Result delivered to local resolve() callers.
  struct Result {
    bool ok = false;
    dns::Rcode rcode = dns::Rcode::ServFail;
    std::vector<dns::ResourceRecord> answers;
    SimDuration elapsed{};
  };
  using ResolveCallback = std::function<void(const Result&)>;

  RecursiveResolverNode(sim::Simulator& sim, std::string name, Config config);

  /// Starts a resolution driven directly (no stub network hop). The
  /// optional journey key lets a workload driver correlate this
  /// resolution with marks it records itself (see obs/journey.h).
  void resolve(const dns::DomainName& qname, dns::RrType qtype,
               ResolveCallback cb,
               std::optional<obs::JourneyKey> jkey = std::nullopt);

  [[nodiscard]] const ResolverStats& resolver_stats() const { return stats_; }
  [[nodiscard]] RrCache& cache() { return cache_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t inflight_tasks() const { return tasks_.size(); }

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  struct ClientRef {
    net::SocketAddr addr;
    std::uint16_t query_id;
    dns::Question question;
  };

  struct Task {
    std::uint64_t id = 0;
    dns::Question question;        // current target (follows CNAMEs)
    dns::DomainName original_qname;
    dns::RrType original_qtype = dns::RrType::A;
    std::optional<ClientRef> client;   // network client, or...
    ResolveCallback callback;          // ...local caller
    std::uint64_t parent = 0;          // glue subtask's awaiting parent
    int cname_depth = 0;
    int glue_depth = 0;
    int attempts = 0;
    std::vector<dns::ResourceRecord> accumulated;  // CNAME chain so far
    std::vector<net::Ipv4Address> servers;
    std::size_t server_index = 0;
    int retries = 0;
    SimTime started_at;
    bool waiting_glue = false;
    // Journey correlation: the client's query key (src ip, id, qhash), or
    // a driver-supplied key. Glue subtasks carry none.
    obs::JourneyKey jkey{};
    bool has_jkey = false;
  };

  struct PendingQuery {
    std::uint64_t task_id = 0;
    dns::Question question;
    net::Ipv4Address server;
    std::uint64_t timer_generation = 0;
    bool via_tcp = false;
  };

  // --- task machinery ---
  std::uint64_t start_task(dns::Question question,
                           std::optional<ClientRef> client,
                           ResolveCallback cb, std::uint64_t parent,
                           int glue_depth,
                           std::optional<obs::JourneyKey> jkey = std::nullopt);
  void continue_task(std::uint64_t task_id);
  void send_iterative(Task& task);
  void on_timeout(std::uint16_t query_id, std::uint64_t generation);
  /// Returns false when the response matched no pending query (or failed
  /// the source/question echo checks) — i.e. was dropped unmatched.
  bool handle_response(const dns::Message& response,
                       net::Ipv4Address from_server, bool via_tcp);
  void complete(std::uint64_t task_id, bool ok, dns::Rcode rcode);
  void fail(std::uint64_t task_id) { complete(task_id, false,
                                              dns::Rcode::ServFail); }

  /// Finds the closest enclosing zone with usable nameserver addresses in
  /// cache; falls back to root hints. If NS names are known but none has a
  /// cached address, returns the first such name for glue resolution.
  struct ServerSelection {
    std::vector<net::Ipv4Address> addresses;
    std::optional<dns::DomainName> glue_needed;
  };
  ServerSelection select_servers(const dns::DomainName& qname);

  void cache_message(const dns::Message& m);
  std::uint16_t allocate_query_id();

  // --- TCP fallback ---
  /// Resends pending query `qid` of `task` to `server` over a new
  /// connection.
  void start_tcp_query(const Task& task, std::uint16_t qid,
                       net::Ipv4Address server);
  void on_tcp_message(tcp::ConnId conn, BytesView message);

  Config config_;
  RrCache cache_;
  ResolverStats stats_;
  obs::DropCounters drops_;  // bound as "server.lrs.drop.<reason>"
  common::BoundedTable<std::uint64_t, Task> tasks_;
  common::BoundedTable<std::uint16_t, PendingQuery> pending_;  // by query id
  std::unique_ptr<tcp::TcpStack> tcp_;
  std::uint64_t next_task_id_ = 1;
  std::uint16_t next_query_id_ = 1;
  /// Every retry timer arms with a fresh generation from this node-wide
  /// count: a 16-bit query id can come round within a timeout, and a
  /// per-entry count restarting at 0 would let the old timer match.
  std::uint64_t last_timer_generation_ = 0;
  std::uint16_t next_ephemeral_port_ = 10000;
};

}  // namespace dnsguard::server
