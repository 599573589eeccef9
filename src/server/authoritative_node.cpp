#include "server/authoritative_node.h"

#include <algorithm>

namespace dnsguard::server {
namespace {

/// BIND's CPU time per UDP query (1 / 14K req/s, §IV.C).
constexpr SimDuration kUdpQueryCost = nanoseconds(71429);
/// BIND's CPU time per TCP segment processed.
constexpr SimDuration kTcpSegmentCost = microseconds(40);
/// BIND's additional CPU time per TCP connection (setup/teardown
/// bookkeeping). With ~6 server-side segments per query, the total is
/// about 1 / 2.2K req/s.
constexpr SimDuration kTcpConnectionCost = microseconds(200);
/// The ANS simulator's CPU time per query (1 / 110K req/s, §IV.D).
constexpr SimDuration kAnsSimQueryCost = nanoseconds(9091);

}  // namespace

AuthoritativeServerNode::AuthoritativeServerNode(sim::Simulator& sim,
                                                 std::string name,
                                                 Config config)
    : sim::Node(sim, std::move(name)), config_(config) {
  set_profile_stage(obs::prof::Stage::kAnsService);
  // Cap on tracked TCP connections (and their framing buffers); the LRU
  // connection is reset at the cap, like a full accept backlog.
  constexpr std::size_t kMaxTcpConnections = 65536;
  // Reset TCP connections idle this long.
  constexpr SimDuration kTcpIdleTimeout = seconds(30);
  tcp_ = std::make_unique<tcp::TcpStack>(
      [this](net::Packet p) { send(std::move(p)); },
      [this] { return now(); },
      tcp::TcpStack::Callbacks{
          .on_message = [this](tcp::ConnId id,
                               BytesView m) { on_tcp_message(id, m); },
          .on_closed = {},
      },
      tcp::TcpStack::Options{.syn_cookies = false,
                             .max_connections = kMaxTcpConnections,
                             .max_idle = kTcpIdleTimeout});
  tcp_->listen(net::kDnsPort);
  tcp_->set_drop_counters(&drops_);
  ans_stats_.bind(this->sim().metrics(), "server.ans");
  drops_.bind(this->sim().metrics(), "server.ans");
  tcp_->bind_metrics(this->sim().metrics(), "server.ans.tcp");
}

void AuthoritativeServerNode::apply_ttl_override(dns::Message& m) const {
  if (!config_.ttl_override) return;
  for (auto* section : {&m.answers, &m.authority, &m.additional}) {
    for (auto& rr : *section) rr.ttl = *config_.ttl_override;
  }
}

dns::Message AuthoritativeServerNode::answer(const dns::Message& query,
                                             bool via_tcp) const {
  Answer a = engine_.answer(query);
  apply_ttl_override(a.message);

  // EDNS0 (RFC 6891): an OPT record in the query advertises the
  // requester's reassembly capability; honor it (clamped to the largest
  // UDP payload served to EDNS0 requesters) instead of the classic
  // 512-byte limit, and mirror an OPT in the response.
  constexpr std::uint16_t kMaxEdnsPayload = 4096;
  std::size_t max_udp = dns::kMaxUdpPayload;
  bool requester_edns = false;
  for (const auto& rr : query.additional) {
    if (rr.type == dns::RrType::OPT) {
      requester_edns = true;
      const auto& opt = std::get<dns::OptRdata>(rr.rdata);
      max_udp = std::clamp<std::size_t>(opt.udp_payload_size,
                                        dns::kMaxUdpPayload,
                                        kMaxEdnsPayload);
      break;
    }
  }
  if (requester_edns) {
    a.message.additional.push_back(dns::ResourceRecord{
        dns::DomainName{}, dns::RrType::OPT, dns::RrClass::IN, 0,
        dns::OptRdata{kMaxEdnsPayload}});
  }

  if (!via_tcp && a.message.encode().size() > max_udp) {
    // Too large for UDP: signal truncation; the client retries over TCP.
    dns::Message tc = dns::Message::response_to(query);
    tc.header.tc = true;
    tc.header.aa = a.message.header.aa;
    return tc;
  }
  return a.message;
}

SimDuration AuthoritativeServerNode::process(const net::Packet& packet) {
  if (packet.is_udp()) {
    if (packet.dst_port != net::kDnsPort) return SimDuration{0};
    auto query = dns::Message::decode(BytesView(packet.payload));
    if (!query || query->header.qr || query->question() == nullptr) {
      ans_stats_.malformed++;
      drops_.count(obs::DropReason::kMalformed);
      trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kMalformed);
      return kUdpQueryCost;  // parsing junk still costs CPU
    }
    ans_stats_.udp_queries++;
    dns::Message resp = answer(*query, /*via_tcp=*/false);
    if (resp.header.tc) ans_stats_.truncated++;
    ans_stats_.responses++;
    if (sim().journeys().enabled()) {
      sim().journeys().mark({packet.src_ip.value(), query->header.id,
                             query->question()->qname.hash32()},
                            resp.header.tc ? "ans.truncate" : "ans.answer",
                            now());
    }
    send(net::Packet::make_udp({config_.address, net::kDnsPort}, packet.src(),
                               resp.encode_pooled()));
    return kUdpQueryCost;
  }

  // TCP path: the stack drives callbacks; costs accrue in pending_cost_.
  pending_cost_ = kTcpSegmentCost;
  if (packet.flags.syn && !packet.flags.ack) {
    pending_cost_ = pending_cost_ + kTcpConnectionCost;
  }
  tcp_->handle_packet(packet);
  return pending_cost_;
}

void AuthoritativeServerNode::on_tcp_message(tcp::ConnId conn,
                                             BytesView message) {
  auto query = dns::Message::decode(message);
  if (!query || query->header.qr || query->question() == nullptr) {
    ans_stats_.malformed++;
    drops_.count(obs::DropReason::kMalformed);
    return;
  }
  ans_stats_.tcp_queries++;
  dns::Message resp = answer(*query, /*via_tcp=*/true);
  ans_stats_.responses++;
  if (sim().journeys().enabled()) {
    sim().journeys().mark({conn.remote.ip.value(), query->header.id,
                           query->question()->qname.hash32()},
                          "ans.answer_tcp", now());
  }
  tcp_->send_message(conn, BytesView(resp.encode()));
}

SimDuration AnsSimulatorNode::process(const net::Packet& packet) {
  if (!packet.is_udp() || packet.dst_port != net::kDnsPort) {
    return SimDuration{0};
  }
  dns::Message& m = rx_;
  if (!dns::Message::decode_into(BytesView(packet.payload), m) ||
      m.header.qr || m.question() == nullptr) {
    ans_stats_.malformed++;
    drops_.count(obs::DropReason::kMalformed);
    trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kMalformed);
    return kAnsSimQueryCost;
  }
  ans_stats_.udp_queries++;
  if (sim().journeys().enabled()) {
    sim().journeys().mark({packet.src_ip.value(), m.header.id,
                           m.question()->qname.hash32()},
                          "ans.answer", now());
  }
  // The query becomes its own response, plus AA and the fixed answer.
  m.become_response();
  m.header.aa = true;
  m.answers.push_back(dns::ResourceRecord::a(
      m.questions.front().qname, config_.answer_address, config_.answer_ttl));
  ans_stats_.responses++;
  send(net::Packet::make_udp({config_.address, net::kDnsPort}, packet.src(),
                             m.encode_pooled()));
  return kAnsSimQueryCost;
}

}  // namespace dnsguard::server
