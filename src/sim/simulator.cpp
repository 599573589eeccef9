#include "sim/simulator.h"

#include <algorithm>

#include "sim/node.h"

namespace dnsguard::sim {
namespace {

std::uint64_t pair_key(const Node* a, const Node* b) {
  // Unordered pair of registration ids. Ids are assigned monotonically at
  // add_node() and stay well below 2^32, so packing (lo, hi) is
  // collision-free — and, unlike the pointer-derived key this replaces,
  // identical across reruns whatever the allocator does. A null node
  // (tests inject packets from outside the node graph) maps to the
  // reserved id 0, below every real registration.
  std::uint64_t ia = a ? a->sim_id() : 0;
  std::uint64_t ib = b ? b->sim_id() : 0;
  if (ia > ib) std::swap(ia, ib);
  return (ia << 32) | ib;
}

}  // namespace

Simulator::Simulator() {
  metrics_.attach_counter("sim.events_dispatched", events_dispatched_);
  metrics_.attach_gauge("sim.queue_depth", queue_depth_);
  metrics_.attach_counter("sim.net.packets_sent", stats_.packets_sent);
  metrics_.attach_counter("sim.net.packets_delivered",
                          stats_.packets_delivered);
  metrics_.attach_counter("sim.net.packets_dropped_no_route",
                          stats_.packets_dropped_no_route);
  metrics_.attach_counter("sim.net.packets_dropped_queue_full",
                          stats_.packets_dropped_queue_full);
  metrics_.attach_counter("sim.net.packets_dropped_loss",
                          stats_.packets_dropped_loss);
  metrics_.attach_counter("sim.net.bytes_sent", stats_.bytes_sent);
}

void Simulator::run_until(SimTime until) {
  // One inter-tick slice per event charges dispatch cost (heap pop, the
  // event body, queue bookkeeping) to sim.dispatch; node-level spans
  // opened inside the event nest under it via the pinned context.
  obs::prof::DispatchWindow prof_window;
  while (!queue_.empty() && queue_.next_time() <= until) {
    queue_.run_next(now_);
    ++events_dispatched_;
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    prof_window.tick();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run_all() {
  obs::prof::DispatchWindow prof_window;
  while (queue_.run_next(now_)) {
    ++events_dispatched_;
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    prof_window.tick();
  }
}

void Simulator::add_node(Node* node) {
  node->sim_id_ = next_node_id_++;
  nodes_.push_back(node);
}

void Simulator::remove_node(Node* node) {
  nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), node),
               nodes_.end());
  // Drop config referencing the departing node so a later node can never
  // observe it (as from-node, by id) or route through a dangling pointer
  // (as gateway or route target, by value): a packet to its addresses now
  // counts as packets_dropped_no_route. Packets it already served still
  // arrive. Its queued lane packets, its timers and packets in flight to
  // it must not outlive it.
  gateways_.erase(node->sim_id_);
  std::erase_if(gateways_,
                [node](const auto& kv) { return kv.second == node; });
  remove_routes_to(node);
}

void Simulator::add_route(net::Ipv4Address prefix, int prefix_len,
                          Node* node) {
  routes_.push_back(Route{prefix.value(), prefix_len, node});
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const Route& a, const Route& b) {
                     return a.prefix_len > b.prefix_len;
                   });
}

void Simulator::remove_routes_to(Node* node) {
  std::erase_if(routes_, [node](const Route& r) { return r.node == node; });
}

Node* Simulator::route_lookup(net::Ipv4Address dst) const {
  for (const Route& r : routes_) {  // sorted longest-prefix first
    if (dst.in_subnet(net::Ipv4Address(r.prefix), r.prefix_len)) {
      return r.node;
    }
  }
  return nullptr;
}

void Simulator::set_latency(Node* a, Node* b, SimDuration one_way) {
  latency_[pair_key(a, b)] = one_way;
}

SimDuration Simulator::latency_between(const Node* a, const Node* b) const {
  auto it = latency_.find(pair_key(a, b));
  return it == latency_.end() ? default_latency_ : it->second;
}

void Simulator::set_gateway(Node* from, Node* gateway) {
  gateways_[from->sim_id()] = gateway;
}

void Simulator::clear_gateway(Node* from) {
  gateways_.erase(from->sim_id());
}

void Simulator::send_packet(Node* from, net::Packet packet, SimTime depart) {
  stats_.packets_sent++;
  stats_.bytes_sent += packet.wire_size();
  if (from != nullptr) {
    auto gw = gateways_.find(from->sim_id());
    if (gw != gateways_.end()) {
      deliver_later(from, gw->second, std::move(packet), depart);
      return;
    }
  }
  Node* to = route_lookup(packet.dst_ip);
  if (to == nullptr) {
    stats_.packets_dropped_no_route++;
    packet.release_payload();
    return;
  }
  deliver_later(from, to, std::move(packet), depart);
}

void Simulator::send_direct(Node* from, Node* to, net::Packet packet,
                            SimTime depart) {
  stats_.packets_sent++;
  stats_.bytes_sent += packet.wire_size();
  deliver_later(from, to, std::move(packet), depart);
}

void Simulator::set_loss_rate(double p, std::uint64_t loss_seed) {
  loss_rate_ = p;
  loss_rng_.reseed(loss_seed);
}

void Simulator::start_timeseries(SimDuration window, std::size_t capacity) {
  timeseries_.start(metrics_, now_, window, capacity);
  schedule_sampler_tick(++timeseries_epoch_);
}

void Simulator::stop_timeseries() {
  timeseries_.stop();
  ++timeseries_epoch_;  // any already-scheduled tick becomes a no-op
}

void Simulator::schedule_sampler_tick(std::uint64_t epoch) {
  schedule_at(timeseries_.next_boundary(), [this, epoch] {
    if (epoch != timeseries_epoch_ || !timeseries_.running()) return;
    timeseries_.sample(now_);
    schedule_sampler_tick(epoch);
  });
}

std::vector<std::pair<std::string, const obs::TraceRing*>>
Simulator::trace_rings() const {
  std::vector<std::pair<std::string, const obs::TraceRing*>> out;
  out.reserve(nodes_.size());
  for (const Node* n : nodes_) {
    out.emplace_back(n->name(), &n->trace_ring());
  }
  return out;
}

namespace {

// Minimal string escape for embedding trace lines in JSON.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

obs::FlightRecorder& Simulator::flight_recorder() {
  if (!flightrec_wired_) {
    flightrec_wired_ = true;
    flightrec_.add_section("metrics", [this] { return metrics_.to_json(2); });
    flightrec_.add_section("timeseries",
                           [this] { return timeseries_.to_json(2); });
    flightrec_.add_section("trace_rings", [this] {
      std::string out = "{";
      bool first_node = true;
      for (const auto& [name, ring] : trace_rings()) {
        out += first_node ? "\n" : ",\n";
        first_node = false;
        out += "    \"" + json_escape(name) + "\": [";
        bool first_entry = true;
        for (const obs::TraceEntry& e : ring->entries()) {
          out += first_entry ? "\n" : ",\n";
          first_entry = false;
          out += "      \"" + json_escape(e.to_string()) + "\"";
        }
        out += first_entry ? "]" : "\n    ]";
      }
      out += first_node ? "}" : "\n  }";
      return out;
    });
    flightrec_.add_section("journeys", [this] {
      return journeys_.to_chrome_json(/*include_open=*/true);
    });
    // Wall-clock cost attribution (process-global: probes fire in layers
    // with no Simulator handle). A post-mortem of a wedged or slow run
    // then shows where host time went, next to what the sim state was.
    flightrec_.add_section("profile", [] {
      return obs::prof::profiler.report_json(/*measured_wall_ns=*/0.0, 2);
    });
  }
  return flightrec_;
}

void Simulator::deliver_later(Node* from, Node* to, net::Packet packet,
                              SimTime depart) {
  if (depart < now_) depart = now_;
  if (tap_) tap_(depart, from, to, packet);
  if (loss_rate_ > 0 && loss_rng_.chance(loss_rate_)) {
    stats_.packets_dropped_loss++;
    packet.release_payload();
    return;
  }
  // Only the receiver is captured: the sender may be gone by arrival.
  schedule_at(depart + latency_between(from, to),
              [to, p = std::move(packet)]() mutable {
                to->deliver(std::move(p));
              });
}

}  // namespace dnsguard::sim
