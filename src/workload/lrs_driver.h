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

#include <algorithm>
#include <memory>
#include <string>
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
  /// Mean per-request latency since the last reset (completed requests).
  [[nodiscard]] Percentiles& latencies() { return latencies_; }

  /// Which worker each in-flight query id belongs to: open addressing
  /// over 2 x concurrency slots (a worker has at most one id in flight),
  /// linear probing and backward-shift deletion, so the slots are sized
  /// once, at start(). Id 0 is never in flight and marks an empty slot.
  /// Public so tests can check it against a map.
  class QidIndex {
   public:
    /// Empties the index and sizes it to `slots` (at least 2).
    void reset(std::size_t slots);
    void clear() { std::fill(slots_.begin(), slots_.end(), Slot{}); }
    /// The worker of `qid`, or -1.
    [[nodiscard]] int find(std::uint16_t qid) const;
    /// Adds `qid`, which must not be in the index.
    void insert(std::uint16_t qid, int worker);
    void erase(std::uint16_t qid);

   private:
    struct Slot {
      std::uint16_t qid = 0;
      int worker = 0;
    };
    /// Ids are handed out in sequence, so they are scattered (Fibonacci
    /// hashing) before they are mapped onto the slots: id % slots would
    /// pack the ids in flight into one long probe run.
    [[nodiscard]] std::size_t home(std::uint16_t qid) const {
      const std::uint32_t h = std::uint32_t{qid} * 0x9e3779b1u;
      return static_cast<std::size_t>((std::uint64_t{h} * slots_.size()) >>
                                      32);
    }
    [[nodiscard]] std::size_t next(std::size_t i) const {
      return i + 1 == slots_.size() ? 0 : i + 1;
    }
    std::vector<Slot> slots_;
  };

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  // Per-worker protocol state machine.
  struct Worker {
    int stage = 0;
    std::uint16_t pending_qid = 0;
    // One live timer per worker. `deadline` is when the armed exchange
    // times out; `armed` is false once it is answered. The timer event
    // (`timer_pending`) is scheduled only when none is in the queue: one
    // that fires before a moved deadline re-arms itself there.
    SimTime deadline{};
    bool armed = false;
    bool timer_pending = false;
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
  void advance(int w, const dns::Message& response);
  /// Sends worker `w`'s next query, for `qname`, type A, under a fresh
  /// id, carrying `txt_cookie` in a TXT record when it is not null.
  void send_exchange(int w, const dns::DomainName& qname, net::SocketAddr to,
                     const crypto::Cookie* txt_cookie = nullptr);
  /// Claims a query id not in flight for worker `w`, releasing the
  /// worker's previous one.
  std::uint16_t claim_qid(int w);
  /// Arms worker `w`'s exchange timeout `config_.timeout` from now.
  void arm_timeout(int w);
  /// Schedules worker `w`'s timer event for its deadline.
  void schedule_timer(int w);
  void on_timer(int w);
  void complete(int w);
  void restart(int w);
  /// Sends worker `w`'s query on a new TCP connection and arms its
  /// exchange timeout.
  void start_tcp(int w);
  void on_tcp_message(tcp::ConnId conn, BytesView message);

  /// Opens the worker's journey on the first exchange of a request and
  /// aliases every follow-up exchange's key onto it; `stage` must be a
  /// string literal.
  void journey_touch(Worker& worker, std::uint16_t qid, std::uint32_t qhash);
  /// Ends the worker's journey; `may_open` as in JourneyTracker::end.
  void journey_end(Worker& worker, std::string_view stage, bool ok,
                   bool may_open);

  Config config_;
  dns::DomainName qname_;
  dns::DomainName zone_;
  Rng rng_;
  std::vector<Worker> workers_;
  QidIndex qid_to_worker_;
  /// Every query is built in tx_ and every reply decoded into rx_, over
  /// UDP and TCP alike, so their storage is kept across packets.
  dns::Message tx_;
  dns::Message rx_;
  std::unique_ptr<tcp::TcpStack> tcp_;
  DriverStats stats_;
  Percentiles latencies_;
  std::uint16_t next_qid_ = 1;
  std::uint16_t next_port_ = 30000;
  bool running_ = false;
};

}  // namespace dnsguard::workload
