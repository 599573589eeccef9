// Attack traffic generators (§I attack strategies, §III.G attack analysis).
//
//   SpoofedFloodNode     — the headline threat: UDP DNS requests at a
//                          configurable rate with spoofed source addresses.
//   CookieGuessNode      — spoofed requests carrying *guessed* cookies
//                          (random NS-name labels, random subnet addresses
//                          or random TXT cookies); measures the 1/R_y
//                          penetration bound of §III.G.
//   ZombieFloodNode      — non-spoofed flood from the attacker's real
//                          address (what Rate-Limiter2 must contain).
//   VictimNode           — a third-party machine counting reflected bytes
//                          (amplification accounting, §III.G).
#pragma once

#include <functional>
#include <string>

#include "common/rng.h"
#include "dns/message.h"
#include "sim/node.h"

namespace dnsguard::attack {

struct FloodStats {
  std::uint64_t sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t response_bytes = 0;
};

/// Base class: emits `rate` UDP DNS queries/sec while running.
class FloodNodeBase : public sim::Node {
 public:
  struct Config {
    net::Ipv4Address own_address;      // where the attacker really sits
    net::SocketAddr target;            // the guarded ANS
    double rate = 1000.0;              // requests/sec
    std::uint64_t seed = 42;
    std::string qname_base = "www.foo.com.";
  };

  FloodNodeBase(sim::Simulator& sim, std::string name, Config config);

  void start();
  void stop() { running_ = false; }
  void set_rate(double rate) { config_.rate = rate; }
  [[nodiscard]] const FloodStats& flood_stats() const { return stats_; }

 protected:
  /// Builds the next attack packet (subclass-specific spoofing/cookies).
  virtual net::Packet next_packet() = 0;

  SimDuration process(const net::Packet& packet) override;

  /// Builds an A query for `qname` in query_, which keeps its storage
  /// across packets.
  dns::Message& make_query(std::uint16_t id, const dns::DomainName& qname);

  Config config_;
  dns::DomainName qname_;  // config_.qname_base, parsed once
  Rng rng_;
  FloodStats stats_;
  dns::Message query_;

 private:
  void tick();
  bool running_ = false;
  std::uint64_t epoch_ = 0;  // invalidates pending ticks on restart
};

/// Spoofed-source flood: source addresses drawn uniformly from a prefix.
class SpoofedFloodNode : public FloodNodeBase {
 public:
  struct SpoofConfig {
    net::Ipv4Address spoof_base{10, 200, 0, 0};
    std::uint32_t spoof_range = 1 << 16;
    /// Attach a random (invalid) modified-DNS TXT cookie to each request —
    /// the Fig. 6 attacker: "spoofs requests and does not have the right
    /// cookie". The guard then spends exactly one MD5 check per packet.
    bool random_txt_cookie = false;
  };

  SpoofedFloodNode(sim::Simulator& sim, std::string name, Config config,
                   SpoofConfig spoof)
      : FloodNodeBase(sim, std::move(name), std::move(config)),
        spoof_(spoof) {}
  SpoofedFloodNode(sim::Simulator& sim, std::string name, Config config)
      : SpoofedFloodNode(sim, std::move(name), std::move(config),
                         SpoofConfig{}) {}

 protected:
  net::Packet next_packet() override;

 private:
  SpoofConfig spoof_;
};

/// "Whac-A-Mole" spoofer: a spoofed flood that *hops* its source prefix
/// on a schedule (the evasion pattern the root-DDoS defense literature
/// names after the arcade game — block one prefix and the attack pops up
/// from another). Each hop churns the guard's per-source tables with a
/// fresh source population, stressing LRU bounds and making source-growth
/// a signal the anomaly discriminator must not confuse with a flash
/// crowd: hopped sources never verify, so the malicious mix stays high.
class PrefixHopFloodNode : public FloodNodeBase {
 public:
  struct HopConfig {
    /// First spoofed prefix; hop i uses base + i * prefix_span.
    net::Ipv4Address prefix_base{10, 200, 0, 0};
    /// Addresses drawn per prefix (the per-hop source population).
    std::uint32_t prefix_span = 1 << 12;
    /// Hop cycle length before wrapping back to the first prefix.
    std::uint32_t num_prefixes = 64;
    SimDuration hop_interval = seconds(1);
    /// Attach random (never-verifying) TXT cookies, as SpoofedFloodNode.
    bool random_txt_cookie = true;
  };

  PrefixHopFloodNode(sim::Simulator& sim, std::string name, Config config,
                     HopConfig hop)
      : FloodNodeBase(sim, std::move(name), std::move(config)), hop_(hop) {}

  /// The prefix index in use at time `t` (deterministic hop schedule).
  [[nodiscard]] std::uint32_t hop_index(SimTime t) const {
    if (hop_.hop_interval.ns <= 0 || hop_.num_prefixes == 0) return 0;
    return static_cast<std::uint32_t>(
        (t.ns / hop_.hop_interval.ns) %
        static_cast<std::int64_t>(hop_.num_prefixes));
  }

 protected:
  net::Packet next_packet() override;

 private:
  HopConfig hop_;
};

/// Cookie-guessing attacker (§III.G "guess the value of a cookie").
class CookieGuessNode : public FloodNodeBase {
 public:
  enum class Mode {
    NsNameLabel,   // random "PR" + 8 hex chars labels
    SubnetAddress, // random destination y in the guard's subnet
    TxtCookie,     // random 16-byte TXT cookies
  };
  struct GuessConfig {
    Mode mode = Mode::SubnetAddress;
    net::Ipv4Address victim{10, 99, 0, 1};  // spoofed source
    net::Ipv4Address subnet_base;           // for SubnetAddress mode
    std::uint32_t r_y = 250;
    dns::DomainName zone;                   // protected zone (NsName mode)
  };

  CookieGuessNode(sim::Simulator& sim, std::string name, Config config,
                  GuessConfig guess)
      : FloodNodeBase(sim, std::move(name), std::move(config)),
        guess_(std::move(guess)) {}

 protected:
  net::Packet next_packet() override;

 private:
  GuessConfig guess_;
};

/// Non-spoofed flood from the attacker's own address.
class ZombieFloodNode : public FloodNodeBase {
 public:
  using FloodNodeBase::FloodNodeBase;

 protected:
  net::Packet next_packet() override;
};

/// A bystander machine that just counts what lands on it — the
/// amplification victim.
class VictimNode : public sim::Node {
 public:
  VictimNode(sim::Simulator& sim, std::string name, net::Ipv4Address address)
      : sim::Node(sim, std::move(name)), address_(address) {}

  [[nodiscard]] std::uint64_t packets_received() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_; }
  [[nodiscard]] net::Ipv4Address address() const { return address_; }

 protected:
  SimDuration process(const net::Packet& packet) override {
    packets_++;
    bytes_ += packet.wire_size();
    return SimDuration{0};
  }

 private:
  net::Ipv4Address address_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace dnsguard::attack
