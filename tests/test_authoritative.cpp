// AuthoritativeServerNode (BIND-like) and AnsSimulatorNode specifics:
// cost-model capacity, TTL override, UDP truncation, TCP service,
// connection reaping, malformed input.
#include <gtest/gtest.h>

#include "server/authoritative_node.h"
#include "server/zone.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

namespace dnsguard::server {
namespace {

using net::Ipv4Address;
using net::Packet;

constexpr Ipv4Address kAnsIp(10, 0, 0, 1);

class ProbeNode : public sim::Node {
 public:
  explicit ProbeNode(sim::Simulator& s) : sim::Node(s, "probe") {}
  std::vector<Packet> received;

 protected:
  SimDuration process(const Packet& p) override {
    received.push_back(p);
    return SimDuration{};
  }
};

struct Bed {
  sim::Simulator sim;
  std::unique_ptr<AuthoritativeServerNode> ans;
  ProbeNode probe{sim};

  explicit Bed(AuthoritativeServerNode::Config cfg = {.address = kAnsIp}) {
    cfg.address = kAnsIp;
    ans = std::make_unique<AuthoritativeServerNode>(sim, "ans", cfg);
    auto h = make_example_hierarchy(kAnsIp, Ipv4Address(10, 0, 0, 2),
                                    Ipv4Address(10, 0, 0, 3));
    ans->add_zone(std::move(h.root));
    sim.add_host_route(kAnsIp, ans.get());
    sim.add_host_route(Ipv4Address(10, 0, 9, 9), &probe);
  }

  dns::Message ask(const dns::Message& q) {
    probe.received.clear();
    sim.send_packet(&probe,
                    Packet::make_udp({Ipv4Address(10, 0, 9, 9), 40000},
                                     {kAnsIp, net::kDnsPort}, q.encode()));
    sim.run_for(milliseconds(10));
    if (probe.received.empty()) return dns::Message{};
    return dns::Message::decode(BytesView(probe.received[0].payload))
        .value_or(dns::Message{});
  }
};

TEST(BindNode, AnswersOverUdp) {
  Bed bed;
  auto resp = bed.ask(dns::Message::query(
      7, *dns::DomainName::parse("a.root-servers.net"), dns::RrType::A,
      false));
  EXPECT_TRUE(resp.header.qr);
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(bed.ans->ans_stats().udp_queries, 1u);
}

TEST(BindNode, TtlOverrideRewritesEverySection) {
  AuthoritativeServerNode::Config cfg{.address = kAnsIp};
  cfg.ttl_override = 0;
  Bed bed(cfg);
  auto resp = bed.ask(dns::Message::query(
      7, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false));
  // The root zone refers to com: NS in authority, glue in additional.
  ASSERT_FALSE(resp.authority.empty());
  for (const auto& rr : resp.authority) EXPECT_EQ(rr.ttl, 0u);
  for (const auto& rr : resp.additional) EXPECT_EQ(rr.ttl, 0u);
}

TEST(BindNode, OversizeUdpResponseTruncated) {
  Bed bed;
  Zone big(dns::DomainName{});
  for (int i = 0; i < 40; ++i) {
    big.add_a("big.example.", Ipv4Address(192, 0, 3, static_cast<std::uint8_t>(i)));
  }
  bed.ans->add_zone(std::move(big));
  auto resp = bed.ask(dns::Message::query(
      9, *dns::DomainName::parse("big.example"), dns::RrType::A, false));
  EXPECT_TRUE(resp.header.tc);
  EXPECT_TRUE(resp.answers.empty());
  EXPECT_EQ(bed.ans->ans_stats().truncated, 1u);
  // The TC response itself must fit comfortably in a UDP message.
  EXPECT_LT(resp.encode().size(), 100u);
}

TEST(BindNode, ServesDnsOverTcp) {
  Bed bed;
  // Use the driver's TCP mode as a ready-made DNS-over-TCP client.
  workload::LrsSimulatorNode::Config dc;
  dc.address = Ipv4Address(10, 0, 9, 8);
  dc.target = {kAnsIp, net::kDnsPort};
  dc.mode = workload::DriveMode::TcpDirect;
  dc.concurrency = 1;
  dc.timeout = milliseconds(100);
  dc.qname = "a.root-servers.net.";
  workload::LrsSimulatorNode client(bed.sim, "tcp-client", dc);
  bed.sim.add_host_route(dc.address, &client);

  client.start();
  bed.sim.run_for(milliseconds(50));
  client.stop();
  EXPECT_GT(client.driver_stats().completed, 5u);
  EXPECT_GT(bed.ans->ans_stats().tcp_queries, 5u);
}

TEST(BindNode, LeavesNoTimerBehind) {
  // Idle TCP connections expire through the stack's connection table, not
  // a reap timer, so a simulation holding a BIND ANS runs dry.
  Bed bed;
  bed.sim.run_for(seconds(1));
  EXPECT_EQ(bed.sim.pending_events(), 0u);
}

TEST(BindNode, UdpCapacityMatchesCalibration) {
  // Offered 20K req/s against the 14K req/s cost model: utilization
  // saturates and completions cap out around capacity.
  Bed bed;
  workload::LrsSimulatorNode::Config dc;
  dc.address = Ipv4Address(10, 0, 9, 8);
  dc.target = {kAnsIp, net::kDnsPort};
  dc.mode = workload::DriveMode::PlainUdp;
  dc.concurrency = 64;
  dc.timeout = milliseconds(50);
  dc.qname = "a.root-servers.net.";
  workload::LrsSimulatorNode client(bed.sim, "client", dc);
  bed.sim.add_host_route(dc.address, &client);

  client.start();
  bed.sim.run_for(milliseconds(500));
  bed.sim.metrics().reset_values();
  bed.ans->reset_stats();
  bed.sim.run_for(seconds(1));
  client.stop();
  double tput = static_cast<double>(client.driver_stats().completed);
  EXPECT_NEAR(tput, 14000.0, 700.0);
  EXPECT_GT(bed.ans->utilization(seconds(1)), 0.97);
}

TEST(BindNode, MalformedPacketsCountedNotCrashing) {
  Bed bed;
  bed.sim.send_packet(&bed.probe,
                      Packet::make_udp({Ipv4Address(10, 0, 9, 9), 40000},
                                       {kAnsIp, net::kDnsPort},
                                       Bytes{1, 2, 3}));
  // A response (qr=1) sent at the server must be ignored as a query.
  dns::Message bogus;
  bogus.header.qr = true;
  bogus.questions.push_back(dns::Question{
      *dns::DomainName::parse("x.example"), dns::RrType::A,
      dns::RrClass::IN});
  bed.sim.send_packet(&bed.probe,
                      Packet::make_udp({Ipv4Address(10, 0, 9, 9), 40000},
                                       {kAnsIp, net::kDnsPort},
                                       bogus.encode()));
  bed.sim.run_for(milliseconds(10));
  EXPECT_EQ(bed.ans->ans_stats().malformed, 2u);
  EXPECT_EQ(bed.ans->ans_stats().responses, 0u);
}

TEST(BindNode, WrongPortIgnored) {
  Bed bed;
  dns::Message q = dns::Message::query(
      1, *dns::DomainName::parse("a.root-servers.net"), dns::RrType::A,
      false);
  bed.sim.send_packet(&bed.probe,
                      Packet::make_udp({Ipv4Address(10, 0, 9, 9), 40000},
                                       {kAnsIp, 5353}, q.encode()));
  bed.sim.run_for(milliseconds(10));
  EXPECT_EQ(bed.ans->ans_stats().udp_queries, 0u);
}

TEST(AnsSim, CapacityMatchesCalibration) {
  sim::Simulator sim;
  AnsSimulatorNode ans(sim, "anssim", {.address = kAnsIp});
  sim.add_host_route(kAnsIp, &ans);
  workload::LrsSimulatorNode::Config dc;
  dc.address = Ipv4Address(10, 0, 9, 8);
  dc.target = {kAnsIp, net::kDnsPort};
  dc.mode = workload::DriveMode::PlainUdp;
  dc.concurrency = 256;
  workload::LrsSimulatorNode client(sim, "client", dc);
  sim.add_host_route(dc.address, &client);

  client.start();
  sim.run_for(milliseconds(500));
  sim.metrics().reset_values();
  sim.run_for(seconds(1));
  client.stop();
  EXPECT_NEAR(static_cast<double>(client.driver_stats().completed), 110000.0,
              3000.0);
}

TEST(AnsSim, EchoesQuestionWithConfiguredAnswer) {
  sim::Simulator sim;
  AnsSimulatorNode ans(sim, "anssim",
                       {.address = kAnsIp,
                        .answer_address = Ipv4Address(203, 0, 113, 7),
                        .answer_ttl = 42});
  sim.add_host_route(kAnsIp, &ans);
  ProbeNode probe(sim);
  sim.add_host_route(Ipv4Address(10, 0, 9, 9), &probe);
  dns::Message q = dns::Message::query(
      5, *dns::DomainName::parse("anything.example"), dns::RrType::A, false);
  sim.send_packet(&probe, Packet::make_udp({Ipv4Address(10, 0, 9, 9), 40000},
                                           {kAnsIp, net::kDnsPort},
                                           q.encode()));
  sim.run_for(milliseconds(10));
  ASSERT_EQ(probe.received.size(), 1u);
  auto resp = dns::Message::decode(BytesView(probe.received[0].payload));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->header.id, 5);
  ASSERT_EQ(resp->answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(resp->answers[0].rdata).address,
            Ipv4Address(203, 0, 113, 7));
  EXPECT_EQ(resp->answers[0].ttl, 42u);
}

}  // namespace
}  // namespace dnsguard::server
