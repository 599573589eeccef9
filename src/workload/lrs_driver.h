// LrsSimulatorNode — the paper's "LRS simulator" (§IV.D): a closed-loop
// load generator that speaks each spoof-detection scheme's packet dance
// directly, holding a configurable number of outstanding requests and
// waiting at most 10 ms per response.
//
// Cache-miss modes replay the full cookie acquisition per request (the
// guard's worst case); cache-hit modes acquire the cookie once and then
// reuse it, which is the paper's steady state. TCP modes drive the
// guard's kernel TCP proxy (Fig. 7).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "crypto/cookie_hash.h"
#include "dns/message.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "sim/node.h"
#include "tcp/tcp_stack.h"

namespace dnsguard::workload {

enum class DriveMode {
  PlainUdp,        // unguarded baseline / disabled-guard traffic
  NsNameMiss,      // Fig. 2(a) msgs 1,2,3,6 per request
  NsNameHit,       // msgs 3,6 per request (fabricated NS cached)
  FabricatedMiss,  // Fig. 2(b) msgs 1,2,3,6,7,10 per request
  FabricatedHit,   // msgs 7,10 per request (COOKIE2 cached)
  ModifiedMiss,    // Fig. 3 msgs 2,3,4,7 per request
  ModifiedHit,     // msgs 4,7 per request (cookie cached)
  TcpDirect,       // TCP handshake + query per request
  TcpWithRedirect, // UDP truncation redirect first, then TCP
};

[[nodiscard]] std::string drive_mode_name(DriveMode m);

/// Counter cells; attached to the simulator's registry as "driver.*" so
/// the time-series sampler can window goodput and timeout rates.
struct DriverStats {
  obs::Counter completed;
  obs::Counter exchanges_sent;
  obs::Counter timeouts;
  obs::Counter unexpected;

  void bind(obs::MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_counter(p + ".completed", completed);
    registry.attach_counter(p + ".exchanges_sent", exchanges_sent);
    registry.attach_counter(p + ".timeouts", timeouts);
    registry.attach_counter(p + ".unexpected", unexpected);
  }
};

class LrsSimulatorNode : public sim::Node {
 public:
  struct Config {
    net::Ipv4Address address;
    net::SocketAddr target;  // protected ANS's public address
    DriveMode mode = DriveMode::PlainUdp;
    /// Number of concurrently outstanding requests (Fig. 7(a) sweeps this).
    int concurrency = 1;
    /// Response wait per exchange (§IV.D: 10 ms).
    SimDuration timeout = milliseconds(10);
    /// Pause between finishing one request and starting the next. Zero =
    /// fully closed loop (§IV.D). Nonzero models a paced requester: with
    /// W workers the healthy offered rate is W/(latency+think), and a
    /// timeout stalls a worker for the full `timeout` — reproducing the
    /// BIND-LRS congestion-backoff collapse of Fig. 5.
    SimDuration think_time{};
    /// The repeatedly-resolved name (§IV.D: "the same domain name").
    std::string qname = "www.foo.com.";
    /// Protected zone (NS-name modes need it to shape cookie queries).
    std::string zone = ".";
    /// Per-packet CPU cost of the driver machine (0 = never a bottleneck).
    SimDuration per_packet_cost{};
    std::uint64_t seed = 7;
  };

  LrsSimulatorNode(sim::Simulator& sim, std::string name, Config config);

  /// Starts the closed loop (all workers fire their first exchange).
  void start();
  void stop();

  [[nodiscard]] const DriverStats& driver_stats() const { return stats_; }
  void reset_driver_stats() { stats_ = DriverStats{}; }
  /// Mean per-request latency since the last reset (completed requests).
  [[nodiscard]] Percentiles& latencies() { return latencies_; }

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  // Per-worker protocol state machine.
  struct Worker {
    int stage = 0;
    std::uint16_t pending_qid = 0;
    std::uint64_t timer_generation = 0;
    SimTime request_started{};
    // learned state
    dns::DomainName fabricated_name;
    net::Ipv4Address cookie2_address;
    crypto::Cookie cookie{};
    bool primed = false;
    tcp::ConnId conn;  // ConnId{} while no connection is open
    // Open journey for the in-flight request (first exchange's key).
    obs::JourneyKey jkey{};
    bool jkey_open = false;
  };

  void begin_request(int w);
  void advance(int w, const dns::Message& response,
               net::Ipv4Address from_ip);
  void send_exchange(int w, dns::Message query, net::SocketAddr to);
  void arm_timeout(int w);
  void on_timeout(int w, std::uint64_t generation);
  void complete(int w);
  void restart(int w);
  void start_tcp(int w);
  void on_tcp_message(tcp::ConnId conn, BytesView message);

  dns::Message make_query(std::uint16_t id, const dns::DomainName& name,
                          dns::RrType type = dns::RrType::A) const;

  /// Opens the worker's journey on the first exchange of a request and
  /// aliases every follow-up exchange's key onto it; `stage` must be a
  /// string literal.
  void journey_touch(Worker& worker, std::uint16_t qid, std::uint32_t qhash);
  void journey_end(Worker& worker, std::string_view stage, bool ok);

  Config config_;
  dns::DomainName qname_;
  dns::DomainName zone_;
  Rng rng_;
  std::vector<Worker> workers_;
  std::unordered_map<std::uint16_t, int> qid_to_worker_;
  std::unique_ptr<tcp::TcpStack> tcp_;
  DriverStats stats_;
  Percentiles latencies_;
  std::uint16_t next_qid_ = 1;
  std::uint16_t next_port_ = 30000;
  bool running_ = false;
};

}  // namespace dnsguard::workload
