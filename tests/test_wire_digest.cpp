// Wire digests: every byte every node puts on the wire, pinned per scheme.
//
// Each test runs a short seeded scenario through one scheme and folds every
// packet the simulator's tap sees, header fields and payload bytes, into a
// WireDigest (bench/wire_digest.h). The expected values are constants, so a
// change to how any node decodes, builds or encodes its DNS messages or
// TCP segments must leave the traffic byte-for-byte as it was. The Determinism.* hash in test_system_properties.cpp covers sizes
// and times only; it cannot see a changed byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "attack/attackers.h"
#include "bench/wire_digest.h"
#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"
#include "workload/population.h"

namespace dnsguard {
namespace {

using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;
using bench::WireDigest;
using workload::DriveMode;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kGuardIp(10, 1, 1, 253);
constexpr Ipv4Address kSubnetBase(10, 1, 1, 0);

/// A guard in front of the ANS simulator, closed-loop drivers and flood
/// nodes, all tapped from the first packet.
struct Scenario {
  sim::Simulator sim;
  server::AnsSimulatorNode ans{sim, "ans", {.address = kAnsIp}};
  std::unique_ptr<RemoteGuardNode> guard;
  std::vector<std::unique_ptr<workload::LrsSimulatorNode>> drivers;
  std::vector<std::unique_ptr<attack::FloodNodeBase>> floods;
  std::unique_ptr<workload::ClientPopulationNode> population;
  WireDigest digest;

  explicit Scenario(Scheme scheme) {
    RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};  // a root guard
    gc.subnet_base = kSubnetBase;
    gc.scheme = scheme;
    gc.rl1.per_address_rate = 1e6;
    gc.rl1.per_address_burst = 1e5;
    gc.rl2.per_host_rate = 1e6;
    gc.rl2.per_host_burst = 1e5;
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, &ans);
    guard->install();
    sim.set_default_latency(microseconds(150));
    sim.set_tap([this](SimTime t, const sim::Node*, const sim::Node*,
                       const net::Packet& p) { digest.add(t, p); });
  }

  void add_driver(DriveMode mode, Ipv4Address address, std::uint64_t seed) {
    workload::LrsSimulatorNode::Config dc;
    dc.address = address;
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = mode;
    dc.concurrency = 4;
    dc.timeout = milliseconds(5);
    dc.seed = seed;
    drivers.push_back(std::make_unique<workload::LrsSimulatorNode>(
        sim, "driver-" + address.to_string(), dc));
    sim.add_host_route(address, drivers.back().get());
  }

  attack::FloodNodeBase::Config flood_config(std::uint8_t own, double rate,
                                             std::uint64_t seed) {
    return {.own_address = Ipv4Address(10, 9, 9, own),
            .target = {kAnsIp, net::kDnsPort},
            .rate = rate,
            .seed = seed};
  }

  void add_flood(std::unique_ptr<attack::FloodNodeBase> flood) {
    floods.push_back(std::move(flood));
  }

  void add_population() {
    workload::ClientPopulationNode::Config pc;
    pc.population.num_clients = 5000;
    pc.population.base_rate = 20000.0;
    pc.population.cache_ttl = milliseconds(5);
    pc.population.seed = 17;
    pc.target = {kAnsIp, net::kDnsPort};
    population = std::make_unique<workload::ClientPopulationNode>(
        sim, "population", pc);
  }

  /// Runs every generator for 30 ms, then drains for 20 ms.
  void run() {
    for (auto& d : drivers) d->start();
    for (auto& f : floods) f->start();
    if (population) population->start();
    sim.run_for(milliseconds(30));
    for (auto& d : drivers) d->stop();
    for (auto& f : floods) f->stop();
    if (population) population->stop();
    sim.run_for(milliseconds(20));
  }
};

TEST(WireDigest, NsNameHitAndMiss) {
  Scenario s(Scheme::NsName);
  s.add_driver(DriveMode::NsNameHit, Ipv4Address(10, 0, 1, 1), 3);
  s.add_driver(DriveMode::NsNameMiss, Ipv4Address(10, 0, 1, 2), 4);
  s.add_flood(std::make_unique<attack::CookieGuessNode>(
      s.sim, "guesser", s.flood_config(8, 20000, 5),
      attack::CookieGuessNode::GuessConfig{
          .mode = attack::CookieGuessNode::Mode::NsNameLabel,
          .victim = Ipv4Address(10, 99, 0, 1)}));
  s.run();
  EXPECT_GT(s.guard->guard_stats().responses_relayed, 100u);
  EXPECT_EQ(s.digest.packets(), 2185u);
  EXPECT_EQ(s.digest.value(), 13082620115069305996u);
}

TEST(WireDigest, FabricatedNsIp) {
  Scenario s(Scheme::FabricatedNsIp);
  s.add_driver(DriveMode::FabricatedHit, Ipv4Address(10, 0, 1, 1), 3);
  s.add_driver(DriveMode::FabricatedMiss, Ipv4Address(10, 0, 1, 2), 4);
  s.add_flood(std::make_unique<attack::CookieGuessNode>(
      s.sim, "guesser", s.flood_config(8, 20000, 5),
      attack::CookieGuessNode::GuessConfig{
          .mode = attack::CookieGuessNode::Mode::SubnetAddress,
          .victim = Ipv4Address(10, 99, 0, 1),
          .subnet_base = kSubnetBase}));
  s.run();
  EXPECT_GT(s.guard->guard_stats().responses_relayed, 100u);
  EXPECT_EQ(s.digest.packets(), 2173u);
  EXPECT_EQ(s.digest.value(), 7019334315650923489u);
}

TEST(WireDigest, ModifiedDnsUnderTxtAndCookielessFloods) {
  Scenario s(Scheme::ModifiedDns);
  s.add_driver(DriveMode::ModifiedHit, Ipv4Address(10, 0, 1, 1), 3);
  s.add_driver(DriveMode::ModifiedMiss, Ipv4Address(10, 0, 1, 2), 4);
  s.add_flood(std::make_unique<attack::SpoofedFloodNode>(
      s.sim, "txt-flood", s.flood_config(9, 40000, 11),
      attack::SpoofedFloodNode::SpoofConfig{.random_txt_cookie = true}));
  s.add_flood(std::make_unique<attack::SpoofedFloodNode>(
      s.sim, "flood", s.flood_config(10, 20000, 12),
      attack::SpoofedFloodNode::SpoofConfig{.random_txt_cookie = false}));
  s.add_flood(std::make_unique<attack::PrefixHopFloodNode>(
      s.sim, "hopper", s.flood_config(11, 5000, 13),
      attack::PrefixHopFloodNode::HopConfig{
          .prefix_base = Ipv4Address(10, 210, 0, 0),
          .hop_interval = milliseconds(10)}));
  s.add_flood(std::make_unique<attack::CookieGuessNode>(
      s.sim, "guesser", s.flood_config(12, 5000, 14),
      attack::CookieGuessNode::GuessConfig{
          .mode = attack::CookieGuessNode::Mode::TxtCookie,
          .victim = Ipv4Address(10, 99, 0, 1)}));
  s.add_flood(std::make_unique<attack::ZombieFloodNode>(
      s.sim, "zombie", s.flood_config(13, 5000, 15)));
  s.sim.add_host_route(Ipv4Address(10, 9, 9, 13), s.floods.back().get());
  s.add_population();
  s.run();
  EXPECT_GT(s.guard->guard_stats().spoofs_dropped, 1000u);
  EXPECT_GT(s.guard->guard_stats().cookie_replies, 100u);
  EXPECT_EQ(s.digest.packets(), 6414u);
  EXPECT_EQ(s.digest.value(), 15729991021419116958u);
}

TEST(WireDigest, TcpRedirect) {
  Scenario s(Scheme::TcpRedirect);
  s.add_driver(DriveMode::TcpWithRedirect, Ipv4Address(10, 0, 1, 1), 3);
  s.add_driver(DriveMode::TcpDirect, Ipv4Address(10, 0, 1, 2), 4);
  s.run();
  EXPECT_GT(s.guard->guard_stats().proxy_queries, 100u);
  EXPECT_EQ(s.digest.packets(), 3220u);
  EXPECT_EQ(s.digest.value(), 8626130551914654624u);
}

TEST(WireDigest, LossyDriversTimeOut) {
  // In-flight loss makes drivers time out, so their timers fire, re-arm
  // and restart exchanges: the wire must not move with how the timers
  // are kept.
  Scenario s(Scheme::ModifiedDns);
  s.sim.set_loss_rate(0.05, 99);
  s.add_driver(DriveMode::ModifiedHit, Ipv4Address(10, 0, 1, 1), 3);
  s.add_driver(DriveMode::NsNameHit, Ipv4Address(10, 0, 1, 2), 4);
  s.add_driver(DriveMode::TcpWithRedirect, Ipv4Address(10, 0, 1, 3), 5);
  s.run();
  std::uint64_t timeouts = 0;
  for (const auto& d : s.drivers) timeouts += d->driver_stats().timeouts;
  EXPECT_GT(timeouts, 0u);
  EXPECT_EQ(s.digest.packets(), 1014u);
  EXPECT_EQ(s.digest.value(), 1045819673277663703u);
}

}  // namespace
}  // namespace dnsguard
