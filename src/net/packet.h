// The Packet: the unit of traffic in the simulator.
//
// A Packet is one IP datagram as the simulation sees it: its addresses,
// ports, transport protocol, TCP's sequence numbers and flags, and the
// payload. Nothing here is ever serialized: components in the simulator
// (guards, servers, attackers) read these fields directly, and
// `wire_size()` charges the IPv4 and UDP/TCP header bytes a real datagram
// would carry, which drives byte-level accounting (link loads, the
// amplification ratios of §III.E and §III.G).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "net/ipv4.h"

namespace dnsguard::net {

inline constexpr std::size_t kIpv4HeaderSize = 20;
inline constexpr std::size_t kUdpHeaderSize = 8;
inline constexpr std::size_t kTcpHeaderSize = 20;

enum class Protocol : std::uint8_t { kUdp, kTcp };

/// TCP control flags, one bit each.
struct TcpFlags {
  bool fin : 1 = false;
  bool syn : 1 = false;
  bool rst : 1 = false;
  bool psh : 1 = false;
  bool ack : 1 = false;
};

struct Packet {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  /// TCP sequence and acknowledgement numbers; zero on UDP.
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol protocol = Protocol::kUdp;
  /// TCP flags; all clear on UDP.
  TcpFlags flags;
  /// The transport payload (for DNS traffic, the DNS message bytes; for
  /// DNS-over-TCP, the 2-byte-length-framed stream chunk).
  Bytes payload;

  [[nodiscard]] bool is_udp() const { return protocol == Protocol::kUdp; }
  [[nodiscard]] bool is_tcp() const { return protocol == Protocol::kTcp; }

  [[nodiscard]] SocketAddr src() const { return {src_ip, src_port}; }
  [[nodiscard]] SocketAddr dst() const { return {dst_ip, dst_port}; }

  /// Total on-wire size in bytes: IP header + transport header + payload.
  [[nodiscard]] std::size_t wire_size() const {
    return kIpv4HeaderSize + (is_udp() ? kUdpHeaderSize : kTcpHeaderSize) +
           payload.size();
  }

  /// Builds a UDP datagram.
  [[nodiscard]] static Packet make_udp(SocketAddr from, SocketAddr to,
                                       Bytes payload);

  /// Builds a TCP segment.
  [[nodiscard]] static Packet make_tcp(SocketAddr from, SocketAddr to,
                                       TcpFlags flags, std::uint32_t seq,
                                       std::uint32_t ack, Bytes payload = {});

  /// A copy whose payload buffer comes from the thread-local BufferPool,
  /// so relaying a packet does not allocate.
  [[nodiscard]] Packet pooled_copy() const;

  /// Returns the payload buffer to the thread-local BufferPool (leaving it
  /// empty). Called once a packet is consumed by a node or discarded by
  /// the simulator, so dns::Message::encode_pooled() reuses the capacity
  /// instead of reallocating per packet.
  void release_payload();
};

}  // namespace dnsguard::net
