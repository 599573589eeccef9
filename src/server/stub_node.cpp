#include "server/stub_node.h"

namespace dnsguard::server {
namespace {

obs::JourneyKey jkey_of(net::Ipv4Address stub, std::uint16_t id,
                        const dns::Question& q) {
  return {stub.value(), id, q.qname.hash32()};
}

}  // namespace

void StubResolverNode::lookup(const dns::DomainName& qname, dns::RrType qtype,
                              Callback cb) {
  std::uint16_t id = next_id_++;
  if (id == 0) id = next_id_++;
  stats_.lookups++;
  Pending p;
  p.question = dns::Question{qname, qtype, dns::RrClass::IN};
  p.callback = std::move(cb);
  p.started_at = now();
  if (sim().journeys().enabled()) {
    sim().journeys().mark(jkey_of(config_.address, id, p.question),
                          "stub.query", now());
  }
  pending_[id] = std::move(p);
  send_query(id);
}

void StubResolverNode::send_query(std::uint16_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  dns::Message q = dns::Message::query(id, p.question.qname, p.question.qtype,
                                       /*recursion_desired=*/true);
  send(net::Packet::make_udp({config_.address, 33000},
                             {config_.lrs_address, net::kDnsPort},
                             q.encode()));
  const std::uint64_t gen = p.generation = ++last_generation_;
  schedule_in(config_.timeout, [this, id, gen] { on_timeout(id, gen); });
}

void StubResolverNode::on_timeout(std::uint16_t id, std::uint64_t generation) {
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second.generation != generation) return;
  Pending& p = it->second;
  if (p.retries < config_.max_retries) {
    p.retries++;
    stats_.retries++;
    if (sim().journeys().enabled()) {
      sim().journeys().mark(jkey_of(config_.address, id, p.question),
                            "stub.retry", now());
    }
    send_query(id);
    return;
  }
  stats_.timeouts++;
  Result r;
  r.ok = false;
  r.elapsed = now() - p.started_at;
  Callback cb = std::move(p.callback);
  if (sim().journeys().enabled()) {
    sim().journeys().end(jkey_of(config_.address, id, it->second.question),
                         "stub.timeout", now(), /*ok=*/false);
  }
  pending_.erase(it);
  if (cb) cb(r);
}

SimDuration StubResolverNode::process(const net::Packet& packet) {
  if (!packet.is_udp()) return SimDuration{0};
  auto m = dns::Message::decode(BytesView(packet.payload));
  if (!m) {
    drops_.count(obs::DropReason::kMalformed);
    trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kMalformed);
    return config_.per_packet_cost;
  }
  if (!m->header.qr) {
    // A stub never serves queries.
    drops_.count(obs::DropReason::kMalformed);
    trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kMalformed);
    return config_.per_packet_cost;
  }
  trace(obs::TraceEvent::kClassify, packet);
  auto it = pending_.find(m->header.id);
  if (it == pending_.end()) {
    drops_.count(obs::DropReason::kUnmatchedResponse);
    trace(obs::TraceEvent::kDrop, packet,
          obs::DropReason::kUnmatchedResponse);
    return config_.per_packet_cost;
  }
  const dns::Question* q = m->question();
  if (q == nullptr || !(q->qname == it->second.question.qname) ||
      q->qtype != it->second.question.qtype) {
    drops_.count(obs::DropReason::kUnmatchedResponse);
    trace(obs::TraceEvent::kDrop, packet,
          obs::DropReason::kUnmatchedResponse);
    return config_.per_packet_cost;
  }
  Result r;
  r.ok = m->header.rcode == dns::Rcode::NoError;
  r.rcode = m->header.rcode;
  r.answers = m->answers;
  r.elapsed = now() - it->second.started_at;
  stats_.answered++;
  if (sim().journeys().enabled()) {
    sim().journeys().end(jkey_of(config_.address, m->header.id,
                                 it->second.question),
                         "stub.answered", now(), r.ok);
  }
  Callback cb = std::move(it->second.callback);
  pending_.erase(it);
  if (cb) cb(r);
  return config_.per_packet_cost;
}

}  // namespace dnsguard::server
