#include "net/packet.h"

#include <cstdio>

#include "common/pool.h"

namespace dnsguard::net {

Packet Packet::pooled_copy() const {
  Bytes copy = BufferPool::local().acquire(payload.size());
  copy.assign(payload.begin(), payload.end());
  return Packet{src_ip, dst_ip, ttl, transport, std::move(copy)};
}

void Packet::release_payload() {
  BufferPool::local().release(std::move(payload));
  payload.clear();
}

std::uint16_t Packet::src_port() const {
  return is_udp() ? udp().src_port : tcp().src_port;
}

std::uint16_t Packet::dst_port() const {
  return is_udp() ? udp().dst_port : tcp().dst_port;
}

std::size_t Packet::wire_size() const {
  return kIpv4HeaderSize + (is_udp() ? kUdpHeaderSize : kTcpHeaderSize) +
         payload.size();
}

Bytes Packet::to_wire() const {
  ByteWriter w(wire_size());
  Ipv4Header ip;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.ttl = ttl;
  ip.proto = is_udp() ? IpProto::Udp : IpProto::Tcp;
  std::size_t transport_size =
      (is_udp() ? kUdpHeaderSize : kTcpHeaderSize) + payload.size();
  ip.encode(w, transport_size);
  if (is_udp()) {
    udp().encode(w, payload.size());
  } else {
    tcp().encode(w);
  }
  w.raw(BytesView(payload));
  return std::move(w).take();
}

std::optional<Packet> Packet::from_wire(BytesView wire) {
  ByteReader r(wire);
  auto ip = Ipv4Header::decode(r);
  if (!ip) return std::nullopt;
  if (ip->total_length != wire.size()) return std::nullopt;

  Packet p;
  p.src_ip = ip->src;
  p.dst_ip = ip->dst;
  p.ttl = ip->ttl;

  if (ip->proto == IpProto::Udp) {
    auto udp = UdpHeader::decode(r);
    if (!udp) return std::nullopt;
    std::size_t payload_len = udp->length - kUdpHeaderSize;
    BytesView body = r.raw(payload_len);
    if (!r.ok()) return std::nullopt;
    p.transport = *udp;
    p.payload.assign(body.begin(), body.end());
  } else {
    auto tcp = TcpHeader::decode(r);
    if (!tcp) return std::nullopt;
    BytesView body = r.raw(r.remaining());
    p.transport = *tcp;
    p.payload.assign(body.begin(), body.end());
  }
  return p;
}

Packet Packet::make_udp(SocketAddr from, SocketAddr to, Bytes payload) {
  Packet p;
  p.src_ip = from.ip;
  p.dst_ip = to.ip;
  UdpHeader h;
  h.src_port = from.port;
  h.dst_port = to.port;
  h.length = static_cast<std::uint16_t>(kUdpHeaderSize + payload.size());
  p.transport = h;
  p.payload = std::move(payload);
  return p;
}

Packet Packet::make_tcp(SocketAddr from, SocketAddr to, TcpFlags flags,
                        std::uint32_t seq, std::uint32_t ack, Bytes payload) {
  Packet p;
  p.src_ip = from.ip;
  p.dst_ip = to.ip;
  TcpHeader h;
  h.src_port = from.port;
  h.dst_port = to.port;
  h.flags = flags;
  h.seq = seq;
  h.ack = ack;
  p.transport = h;
  p.payload = std::move(payload);
  return p;
}

std::string Packet::summary() const {
  char buf[160];
  if (is_udp()) {
    std::snprintf(buf, sizeof buf, "UDP %s -> %s len=%zu",
                  src().to_string().c_str(), dst().to_string().c_str(),
                  payload.size());
  } else {
    const auto& h = tcp();
    std::snprintf(buf, sizeof buf,
                  "TCP %s -> %s %s%s%s%s%s seq=%u ack=%u len=%zu",
                  src().to_string().c_str(), dst().to_string().c_str(),
                  h.flags.syn ? "S" : "", h.flags.ack ? "A" : "",
                  h.flags.fin ? "F" : "", h.flags.rst ? "R" : "",
                  h.flags.psh ? "P" : "", h.seq, h.ack, payload.size());
  }
  return buf;
}

}  // namespace dnsguard::net
