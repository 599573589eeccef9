#include "sim/node.h"

namespace dnsguard::sim {

void Node::trace_at(SimTime at, obs::TraceEvent event,
                    const net::Packet& packet, obs::DropReason reason) {
  std::uint16_t info = 0;
  if (packet.payload.size() >= 2) {
    info = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(packet.payload[0]) << 8) |
        packet.payload[1]);
  }
  trace_.record(at, event, packet.src_ip.value(), packet.dst_ip.value(), info,
                reason);
}

void Node::enable_sharded_service(std::size_t lanes, std::size_t batch_max) {
  if (lanes == 0) lanes = 1;
  if (batch_max == 0) batch_max = 1;
  lanes_.clear();
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(
        ShardLane{common::SpscRing<net::Packet>(rx_capacity_ / lanes)});
  }
  batch_.resize(batch_max);
}

void Node::deliver(net::Packet packet) {
  std::size_t lane_idx = shard_of(packet);
  if (lane_idx >= lanes_.size()) lane_idx = 0;
  ShardLane& lane = lanes_[lane_idx];
  if (lane.ring.full()) {
    stats_.dropped_queue_full++;
    sim_.mutable_stats().packets_dropped_queue_full++;
    trace(obs::TraceEvent::kQueueDrop, packet, obs::DropReason::kQueueFull);
    packet.release_payload();
    return;
  }
  stats_.rx++;
  sim_.mutable_stats().packets_delivered++;
  trace(obs::TraceEvent::kRx, packet);
  (void)lane.ring.try_push(std::move(packet));  // full() checked above
  // Serve on arrival: an idle lane with nothing else due at this instant
  // would run its service event next anyway, at this same instant, so
  // serving now reorders nothing and saves the event. Not from inside
  // this node's own process(): serve_lane is not reentrant.
  if (!lane.scheduled && lane.busy_until <= now() && !in_process_ &&
      sim_.next_event_time() > now()) {
    serve_lane(lane_idx);
    return;
  }
  maybe_schedule_lane(lane_idx);
}

void Node::maybe_schedule_lane(std::size_t lane_idx) {
  ShardLane& lane = lanes_[lane_idx];
  if (lane.scheduled || lane.ring.empty()) return;
  lane.scheduled = true;
  SimTime start = std::max(now(), lane.busy_until);
  sim_.schedule_at(start, [this, lane_idx] { serve_lane(lane_idx); });
}

void Node::serve_lane(std::size_t lane_idx) {
  ShardLane& lane = lanes_[lane_idx];
  lane.scheduled = false;
  std::size_t n = 0;
  while (n < batch_.size() && lane.ring.try_pop(batch_[n])) ++n;
  if (n == 0) return;

  in_batch_ = true;
  on_batch_begin(lane_idx, batch_.data(), n);

  // The burst is served at one sim instant, but each packet's service cost
  // advances the lane clock and its emissions depart at its own completion
  // time, so a burst of one is the classic one-packet-per-event FIFO.
  SimTime t = std::max(now(), lane.busy_until);
  for (std::size_t k = 0; k < n; ++k) {
    in_process_ = true;
    SimDuration cost;
    {
      DNSGUARD_PROF_SCOPE(prof_stage_);
      cost = process(batch_[k]);
    }
    in_process_ = false;
    // The packet is consumed: recycle its payload buffer for the encode
    // paths (handlers that keep the packet copy it, payload included).
    batch_[k].release_payload();
    if (cost.ns < 0) cost.ns = 0;
    stats_.busy = stats_.busy + cost;
    t = t + cost;
    release_outbox(t);
  }
  lane.busy_until = t;
  in_batch_ = false;

  maybe_schedule_lane(lane_idx);
}

void Node::release_outbox(SimTime depart) {
  for (PendingSend& s : outbox_) {
    stats_.tx++;
    trace_at(depart, obs::TraceEvent::kTx, s.packet, obs::DropReason::kNone);
    if (s.direct_to != nullptr) {
      sim_.send_direct(this, s.direct_to, std::move(s.packet), depart);
    } else {
      sim_.send_packet(this, std::move(s.packet), depart);
    }
  }
  outbox_.clear();
}

void Node::send(net::Packet packet) {
  outbox_.push_back(PendingSend{nullptr, std::move(packet)});
  if (!in_process_) release_outbox(now());
}

void Node::send_direct(Node* to, net::Packet packet) {
  outbox_.push_back(PendingSend{to, std::move(packet)});
  if (!in_process_) release_outbox(now());
}

}  // namespace dnsguard::sim
