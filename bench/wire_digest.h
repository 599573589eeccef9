// WireDigest: an FNV-1a 64 digest of packets as the simulator's tap sees
// them, for tests and benches that pin traffic byte for byte or check that
// a rerun repeats it. Each packet folds in its departure time, its
// endpoints, its ports, its protocol, a TCP segment's seq, ack and flags,
// and its payload bytes.
//
// Usage:
//
//   bench::WireDigest digest;
//   sim.set_tap([&](SimTime t, const sim::Node*, const sim::Node*,
//                   const net::Packet& p) { digest.add(t, p); });
#pragma once

#include <cstdint>

#include "common/time.h"
#include "net/packet.h"

namespace dnsguard::bench {

/// FNV-1a 64 over the tapped packets, in tap order.
class WireDigest {
 public:
  void add(SimTime t, const net::Packet& p) {
    ++packets_;
    mix_u64(static_cast<std::uint64_t>(t.ns));
    mix_u64(p.src_ip.value());
    mix_u64(p.dst_ip.value());
    mix_u64(p.src_port);
    mix_u64(p.dst_port);
    mix(p.is_tcp() ? 1 : 0);
    if (p.is_tcp()) {
      mix_u64(p.seq);
      mix_u64(p.ack);
      mix(static_cast<std::uint8_t>(p.flags.fin | p.flags.syn << 1 |
                                    p.flags.rst << 2 | p.flags.psh << 3 |
                                    p.flags.ack << 4));
    }
    mix_u64(p.payload.size());
    for (std::uint8_t b : p.payload) mix(b);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }

 private:
  void mix(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::uint64_t packets_ = 0;
};

}  // namespace dnsguard::bench
