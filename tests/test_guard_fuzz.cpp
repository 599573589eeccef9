// Adversarial robustness: the guard (and the nodes behind it) must
// survive arbitrary garbage — random UDP payloads, random TCP segments,
// half-valid DNS messages — without crashing, leaking state, or letting
// anything unverified through to the ANS.
#include <gtest/gtest.h>

#include "attack/attackers.h"
#include "common/rng.h"
#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

namespace dnsguard {
namespace {

using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;
using net::Packet;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);

struct Bed {
  sim::Simulator sim;
  server::AnsSimulatorNode ans{sim, "ans", {.address = kAnsIp}};
  std::unique_ptr<RemoteGuardNode> guard;

  explicit Bed(Scheme scheme, std::uint32_t r_y = 250) {
    RemoteGuardNode::Config gc;
    gc.guard_address = Ipv4Address(10, 1, 1, 253);
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};
    gc.subnet_base = Ipv4Address(10, 1, 1, 0);
    gc.r_y = r_y;
    gc.scheme = scheme;
    gc.rl1.per_address_rate = 1e7;
    gc.rl1.per_address_burst = 1e6;
    gc.rl2.per_host_rate = 1e7;
    gc.rl2.per_host_burst = 1e6;
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, &ans);
    guard->install();
  }
};

/// Injects raw packets from a synthetic origin.
class InjectorNode : public sim::Node {
 public:
  explicit InjectorNode(sim::Simulator& s) : sim::Node(s, "injector") {}
  void inject(Packet p) { sim().send_packet(this, std::move(p)); }

 protected:
  SimDuration process(const Packet&) override { return {}; }
};

Packet random_udp_garbage(Rng& rng) {
  Bytes payload(rng.bounded(120));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  Ipv4Address src(static_cast<std::uint32_t>(rng.next()));
  return Packet::make_udp({src, static_cast<std::uint16_t>(rng.next())},
                          {kAnsIp, net::kDnsPort}, std::move(payload));
}

Packet random_tcp_garbage(Rng& rng) {
  Bytes payload(rng.bounded(40));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  const auto bits = static_cast<std::uint8_t>(rng.next());
  const net::TcpFlags flags{.fin = (bits & 0x01) != 0,
                            .syn = (bits & 0x02) != 0,
                            .rst = (bits & 0x04) != 0,
                            .psh = (bits & 0x08) != 0,
                            .ack = (bits & 0x10) != 0};
  Ipv4Address src(static_cast<std::uint32_t>(rng.next()));
  return Packet::make_tcp({src, static_cast<std::uint16_t>(rng.next())},
                          {kAnsIp, net::kDnsPort}, flags,
                          static_cast<std::uint32_t>(rng.next()),
                          static_cast<std::uint32_t>(rng.next()),
                          std::move(payload));
}

/// A structurally valid DNS query with randomly mutated bytes.
Packet mutated_dns_query(Rng& rng) {
  dns::Message q = dns::Message::query(
      static_cast<std::uint16_t>(rng.next()),
      *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false);
  Bytes wire = q.encode();
  std::uint64_t flips = 1 + rng.bounded(6);
  for (std::uint64_t i = 0; i < flips; ++i) {
    wire[rng.bounded(wire.size())] ^= static_cast<std::uint8_t>(rng.next());
  }
  Ipv4Address src(static_cast<std::uint32_t>(rng.next()));
  Packet p = Packet::make_udp({src, 33000}, {kAnsIp, net::kDnsPort}, {});
  p.payload = std::move(wire);
  return p;
}

class GuardFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GuardFuzz, SurvivesGarbageOnEveryScheme) {
  for (Scheme scheme : {Scheme::NsName, Scheme::FabricatedNsIp,
                        Scheme::TcpRedirect, Scheme::ModifiedDns}) {
    Bed bed(scheme);
    InjectorNode injector(bed.sim);
    Rng rng(GetParam() * 1337 + static_cast<std::uint64_t>(scheme));
    for (int i = 0; i < 400; ++i) {
      switch (rng.bounded(3)) {
        case 0: injector.inject(random_udp_garbage(rng)); break;
        case 1: injector.inject(random_tcp_garbage(rng)); break;
        default: injector.inject(mutated_dns_query(rng)); break;
      }
      if (i % 50 == 0) bed.sim.run_for(milliseconds(1));
    }
    bed.sim.run_for(milliseconds(100));
    // No crash is the main assertion; also: nothing unverified reached
    // the ANS. (Mutated queries can at most earn a cookie response.)
    EXPECT_EQ(bed.guard->guard_stats().forwarded_to_ans, 0u)
        << guard::scheme_name(scheme);
    // Proxy state stays bounded even under TCP garbage.
    EXPECT_LT(bed.guard->proxy_connections(), 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(GuardFuzz, LegitServiceSurvivesInterleavedGarbage) {
  Bed bed(Scheme::ModifiedDns);
  // A legitimate driver races 50K garbage packets.
  workload::LrsSimulatorNode::Config dc;
  dc.address = Ipv4Address(10, 0, 1, 1);
  dc.target = {kAnsIp, net::kDnsPort};
  dc.mode = workload::DriveMode::ModifiedHit;
  dc.concurrency = 2;
  workload::LrsSimulatorNode driver(bed.sim, "driver", dc);
  bed.sim.add_host_route(dc.address, &driver);

  InjectorNode injector(bed.sim);
  Rng rng(99);
  driver.start();
  for (int burst = 0; burst < 100; ++burst) {
    for (int i = 0; i < 50; ++i) injector.inject(random_udp_garbage(rng));
    bed.sim.run_for(milliseconds(2));
  }
  driver.stop();
  EXPECT_GT(driver.driver_stats().completed, 300u);
  EXPECT_EQ(driver.driver_stats().timeouts, 0u);
}

TEST(GuardFuzz, FabricatedIpSchemeSurvivesZeroRy) {
  // Regression: with r_y == 0 the mint path clamped its divisor to 1 but
  // the verify path did not, so every minted address (base + 1) failed
  // verification and legitimate clients were treated as spoofers forever.
  Bed bed(Scheme::FabricatedNsIp, /*r_y=*/0);

  // Mint and verify must agree at the engine level.
  const Ipv4Address requester(10, 0, 2, 1);
  const Ipv4Address base(10, 1, 1, 0);
  Ipv4Address cookie2 =
      bed.guard->cookie_engine().make_cookie_address(requester, base, 0);
  EXPECT_EQ(cookie2, Ipv4Address(10, 1, 1, 1));
  EXPECT_TRUE(bed.guard->cookie_engine()
                  .verify_cookie_address_ex(requester, cookie2, base, 0)
                  .ok);

  // And end to end: a legitimate driver completes the full Fig. 2(b)
  // exchange with zero verification drops, garbage notwithstanding.
  workload::LrsSimulatorNode::Config dc;
  dc.address = requester;
  dc.target = {kAnsIp, net::kDnsPort};
  dc.mode = workload::DriveMode::FabricatedMiss;
  dc.concurrency = 2;
  workload::LrsSimulatorNode driver(bed.sim, "driver", dc);
  bed.sim.add_host_route(dc.address, &driver);

  InjectorNode injector(bed.sim);
  Rng rng(7);
  driver.start();
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 20; ++i) injector.inject(random_udp_garbage(rng));
    bed.sim.run_for(milliseconds(2));
  }
  driver.stop();
  EXPECT_GT(driver.driver_stats().completed, 20u);
  EXPECT_EQ(driver.driver_stats().timeouts, 0u);
}

TEST(GuardFuzz, SpoofedResponsesTowardAnsIgnored) {
  // Attackers may fire *responses* (qr=1) at the server address hoping to
  // confuse the rewrite machinery; they must be dropped as malformed.
  Bed bed(Scheme::NsName);
  InjectorNode injector(bed.sim);
  dns::Message fake;
  fake.header.qr = true;
  fake.header.id = 1234;
  fake.questions.push_back(dns::Question{
      *dns::DomainName::parse("com"), dns::RrType::A, dns::RrClass::IN});
  fake.answers.push_back(dns::ResourceRecord::a(
      *dns::DomainName::parse("com"), Ipv4Address(6, 6, 6, 6), 60));
  injector.inject(Packet::make_udp({Ipv4Address(10, 66, 0, 1), 53},
                                   {kAnsIp, net::kDnsPort}, fake.encode()));
  bed.sim.run_for(milliseconds(10));
  EXPECT_EQ(bed.guard->guard_stats().malformed, 1u);
  EXPECT_EQ(bed.guard->guard_stats().forwarded_to_ans, 0u);
}

}  // namespace
}  // namespace dnsguard
