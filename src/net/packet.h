// The Packet: the unit of traffic in the simulator.
//
// A Packet is a structured view of one IP datagram — addressing, transport
// header and payload — with exact wire serialization both ways. Components
// in the simulator (guards, servers, attackers) operate on the structured
// form; tests round-trip through the byte form to keep the structured view
// honest; and `wire_size()` drives byte-level accounting (link loads,
// amplification ratios).
#pragma once

#include <optional>
#include <string>
#include <variant>

#include "common/bytes.h"
#include "net/headers.h"
#include "net/ipv4.h"

namespace dnsguard::net {

struct Packet {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint8_t ttl = 64;
  /// UDP or TCP transport header; the alternative chosen determines the IP
  /// protocol field on the wire.
  std::variant<UdpHeader, TcpHeader> transport = UdpHeader{};
  /// The transport payload (for DNS traffic, the DNS message bytes; for
  /// DNS-over-TCP, the 2-byte-length-framed stream chunk).
  Bytes payload;

  [[nodiscard]] bool is_udp() const {
    return std::holds_alternative<UdpHeader>(transport);
  }
  [[nodiscard]] bool is_tcp() const {
    return std::holds_alternative<TcpHeader>(transport);
  }
  [[nodiscard]] const UdpHeader& udp() const {
    return std::get<UdpHeader>(transport);
  }
  [[nodiscard]] UdpHeader& udp() { return std::get<UdpHeader>(transport); }
  [[nodiscard]] const TcpHeader& tcp() const {
    return std::get<TcpHeader>(transport);
  }
  [[nodiscard]] TcpHeader& tcp() { return std::get<TcpHeader>(transport); }

  [[nodiscard]] std::uint16_t src_port() const;
  [[nodiscard]] std::uint16_t dst_port() const;
  [[nodiscard]] SocketAddr src() const { return {src_ip, src_port()}; }
  [[nodiscard]] SocketAddr dst() const { return {dst_ip, dst_port()}; }

  /// Total on-wire size in bytes: IP header + transport header + payload.
  [[nodiscard]] std::size_t wire_size() const;

  /// Serializes the full datagram (IP + transport + payload).
  [[nodiscard]] Bytes to_wire() const;
  /// Parses a full datagram; nullopt on any malformation.
  [[nodiscard]] static std::optional<Packet> from_wire(BytesView wire);

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

  [[nodiscard]] std::string summary() const;
};

}  // namespace dnsguard::net
