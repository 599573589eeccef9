#include "net/packet.h"

#include "common/pool.h"

namespace dnsguard::net {

Packet Packet::pooled_copy() const {
  Bytes copy = BufferPool::local().acquire(payload.size());
  copy.assign(payload.begin(), payload.end());
  return Packet{src_ip, dst_ip, seq, ack, src_port, dst_port, protocol, flags,
                std::move(copy)};
}

void Packet::release_payload() {
  BufferPool::local().release(std::move(payload));
  payload.clear();
}

Packet Packet::make_udp(SocketAddr from, SocketAddr to, Bytes payload) {
  return Packet{.src_ip = from.ip,
                .dst_ip = to.ip,
                .src_port = from.port,
                .dst_port = to.port,
                .payload = std::move(payload)};
}

Packet Packet::make_tcp(SocketAddr from, SocketAddr to, TcpFlags flags,
                        std::uint32_t seq, std::uint32_t ack, Bytes payload) {
  return Packet{.src_ip = from.ip,
                .dst_ip = to.ip,
                .seq = seq,
                .ack = ack,
                .src_port = from.port,
                .dst_port = to.port,
                .protocol = Protocol::kTcp,
                .flags = flags,
                .payload = std::move(payload)};
}

}  // namespace dnsguard::net
