// The Simulator: virtual clock + event queue + network routing.
//
// Topology model (matching the paper's testbed, §IV.A): nodes own IPv4
// addresses or whole subnets, and the network delivers each packet to the
// owner of the longest matching prefix. That prefix rule is exactly how the
// remote DNS guard "intercepts all traffic to 1.2.3.0/24" in front of the
// ANS — the guard registers the subnet, the ANS registers nothing publicly,
// and the guard forwards to the ANS over a private node-to-node link.
//
// Propagation delay is configured per node pair (one-way), with a global
// default; CPU/queueing delay lives in Node (node.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "net/packet.h"
#include "obs/anomaly.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace dnsguard::sim {

class Node;

/// Global packet-conservation counters (also used by property tests:
/// sent == delivered + dropped at all times once the queue drains). The
/// cells are obs::Counter so the simulator's registry exports them
/// without a copy; they still read and increment like plain uint64s.
struct NetworkStats {
  obs::Counter packets_sent;
  obs::Counter packets_delivered;
  obs::Counter packets_dropped_no_route;
  obs::Counter packets_dropped_queue_full;
  obs::Counter packets_dropped_loss;  // injected in-flight loss
  obs::Counter bytes_sent;
};

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` after `delay` (clamped to now for non-negative flow).
  /// Templated so the callable is constructed directly in its event slot
  /// (EventQueue::schedule) instead of transiting an EventFn temporary.
  template <typename F>
  void schedule_in(SimDuration delay, F&& fn) {
    if (delay.ns < 0) delay.ns = 0;
    queue_.schedule(now_ + delay, std::forward<F>(fn));
  }
  template <typename F>
  void schedule_at(SimTime at, F&& fn) {
    if (at < now_) at = now_;
    queue_.schedule(at, std::forward<F>(fn));
  }

  /// Number of scheduled-but-not-yet-fired events (observability; also
  /// how the scheduler benchmark picks a representative standing window).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Instant of the earliest pending event, or kNoEventTime.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  /// Runs until the queue is empty or `until` is reached.
  void run_until(SimTime until);
  void run_for(SimDuration d) { run_until(now_ + d); }
  /// Runs until the event queue drains completely.
  void run_all();

  // --- topology -----------------------------------------------------------

  /// Registers a node; the simulator does not own it. Node's constructor
  /// and destructor call these, so `trace_rings()` always reflects the
  /// live set and never dangles.
  void add_node(Node* node);
  void remove_node(Node* node);

  /// Routes every packet destined to `prefix`/`prefix_len` to `node`.
  /// Longest prefix wins; a /32 route is a plain host address.
  void add_route(net::Ipv4Address prefix, int prefix_len, Node* node);
  void add_host_route(net::Ipv4Address addr, Node* node) {
    add_route(addr, 32, node);
  }
  /// Removes all routes pointing at `node` (used when a guard is switched
  /// from router mode back to pass-through).
  void remove_routes_to(Node* node);

  /// Routes ALL packets originating at `from` through `gateway` instead of
  /// prefix routing — how a protected ANS sits behind the DNS guard in
  /// router mode: its responses transit (and are charged to) the guard.
  void set_gateway(Node* from, Node* gateway);
  void clear_gateway(Node* from);

  /// Sets the one-way propagation delay between two nodes (symmetric).
  void set_latency(Node* a, Node* b, SimDuration one_way);
  void set_default_latency(SimDuration one_way) { default_latency_ = one_way; }
  [[nodiscard]] SimDuration latency_between(const Node* a, const Node* b) const;

  /// Failure injection: each accepted packet is independently dropped in
  /// flight with this probability (deterministic given `loss_seed`).
  /// Exercises the recovery machinery — resolver retransmission, driver
  /// timeouts, TCP stalls and reaping.
  void set_loss_rate(double p, std::uint64_t loss_seed = 0x10551055ULL);

  // --- traffic ------------------------------------------------------------

  /// Injects a packet from `from` into the network departing at `depart`
  /// (clamped to now, the default); it arrives at the routed destination
  /// after the propagation delay. The rest happens now, at hand-over:
  /// packets_sent/bytes_sent, routing, a no-route drop, loss and the tap.
  void send_packet(Node* from, net::Packet packet, SimTime depart = {});

  /// Delivers directly to a specific node (private guard<->ANS wire),
  /// bypassing prefix routing but still paying propagation delay.
  void send_direct(Node* from, Node* to, net::Packet packet,
                   SimTime depart = {});

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  NetworkStats& mutable_stats() { return stats_; }

  /// The simulation-wide metric directory. Every node attaches its stats
  /// cells here at construction; benches snapshot it into BENCH_*.json.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  // --- observability ------------------------------------------------------

  /// The shared query-journey tracker (journey.h). Disabled by default —
  /// node wiring costs one branch per mark; call journeys().enable() to
  /// start recording.
  [[nodiscard]] obs::JourneyTracker& journeys() { return journeys_; }
  [[nodiscard]] const obs::JourneyTracker& journeys() const {
    return journeys_;
  }

  /// Starts the periodic counter sampler: a window closes every `window`
  /// of sim time from now on. The boundary event reads counters and
  /// charges no node CPU, so virtual-time results are unchanged — but it
  /// keeps the event queue non-empty: pair with run_until()/run_for(), or
  /// call stop_timeseries() before run_all(). Restarting supersedes any
  /// previous schedule.
  void start_timeseries(SimDuration window = seconds(1),
                        std::size_t capacity = 1024);
  void stop_timeseries();
  [[nodiscard]] obs::TimeSeriesSampler& timeseries() { return timeseries_; }
  [[nodiscard]] const obs::TimeSeriesSampler& timeseries() const {
    return timeseries_;
  }

  /// Name + trace ring of every registered node (flight recorder, tests).
  [[nodiscard]] std::vector<std::pair<std::string, const obs::TraceRing*>>
  trace_rings() const;

  /// The post-mortem dumper, lazily wired with "metrics", "timeseries",
  /// "trace_rings" and "journeys" sections over this simulator's state.
  /// flight_recorder().dump("label", now()) writes one JSON file.
  [[nodiscard]] obs::FlightRecorder& flight_recorder();

  /// Observation tap: invoked for every packet accepted into the network
  /// at hand-over (after routing, before propagation delay), stamped with
  /// its departure time, so calls are not in time order. It must not
  /// send. Used by tests and the walkthrough example; keep it cheap.
  using TapFn =
      std::function<void(SimTime, const Node* from, const Node* to,
                         const net::Packet&)>;
  void set_tap(TapFn tap) { tap_ = std::move(tap); }
  void clear_tap() { tap_ = nullptr; }

  /// Finds the owner node for an address (nullptr if unrouted).
  [[nodiscard]] Node* route_lookup(net::Ipv4Address dst) const;

 private:
  struct Route {
    std::uint32_t prefix;
    int prefix_len;
    Node* node;
  };

  void deliver_later(Node* from, Node* to, net::Packet packet,
                     SimTime depart);
  void schedule_sampler_tick(std::uint64_t epoch);

  SimTime now_{};
  EventQueue queue_;
  obs::MetricsRegistry metrics_;
  obs::Counter events_dispatched_;
  obs::Gauge queue_depth_;
  std::vector<Node*> nodes_;
  std::vector<Route> routes_;  // kept sorted by descending prefix_len
  // Gateway/latency config is keyed by registration id (Node::sim_id),
  // never by pointer value: ids are monotonic and never reused, so a
  // rerun assigns identical keys regardless of heap layout, and a new
  // node can never alias config left behind by a destroyed one.
  std::uint64_t next_node_id_ = 1;
  std::unordered_map<std::uint64_t, Node*> gateways_;
  std::unordered_map<std::uint64_t, SimDuration> latency_;
  SimDuration default_latency_ = microseconds(200);  // 0.4 ms RTT default
  NetworkStats stats_;
  TapFn tap_;
  double loss_rate_ = 0.0;
  Rng loss_rng_;
  obs::JourneyTracker journeys_;
  obs::TimeSeriesSampler timeseries_;
  std::uint64_t timeseries_epoch_ = 0;  // orphans superseded tick events
  obs::FlightRecorder flightrec_;
  bool flightrec_wired_ = false;
};

}  // namespace dnsguard::sim
