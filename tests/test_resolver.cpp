// End-to-end recursive resolution over the simulated network: iterative
// descent through root/com/foo.com, caching, glueless NS resolution,
// CNAME chasing, server failover and DNS-over-TCP fallback on truncation.
#include <gtest/gtest.h>

#include <optional>

#include "server/authoritative_node.h"
#include "server/resolver_node.h"
#include "server/stub_node.h"
#include "server/zone.h"
#include "sim/simulator.h"

namespace dnsguard::server {
namespace {

using dns::DomainName;
using dns::RrType;
using net::Ipv4Address;

constexpr Ipv4Address kRootIp(10, 0, 0, 1);
constexpr Ipv4Address kComIp(10, 0, 0, 2);
constexpr Ipv4Address kFooIp(10, 0, 0, 3);
constexpr Ipv4Address kLrsIp(10, 0, 1, 1);

struct Testbed {
  sim::Simulator sim;
  std::unique_ptr<AuthoritativeServerNode> root, com, foo;
  std::unique_ptr<RecursiveResolverNode> lrs;

  explicit Testbed(SimDuration retry = milliseconds(20)) {
    auto h = make_example_hierarchy(kRootIp, kComIp, kFooIp);
    root = std::make_unique<AuthoritativeServerNode>(
        sim, "root", AuthoritativeServerNode::Config{.address = kRootIp});
    com = std::make_unique<AuthoritativeServerNode>(
        sim, "com", AuthoritativeServerNode::Config{.address = kComIp});
    foo = std::make_unique<AuthoritativeServerNode>(
        sim, "foo", AuthoritativeServerNode::Config{.address = kFooIp});
    root->add_zone(std::move(h.root));
    com->add_zone(std::move(h.com));
    foo->add_zone(std::move(h.foo_com));

    RecursiveResolverNode::Config cfg;
    cfg.address = kLrsIp;
    cfg.root_hints = {kRootIp};
    cfg.retry_timeout = retry;
    lrs = std::make_unique<RecursiveResolverNode>(sim, "lrs", cfg);

    sim.add_host_route(kRootIp, root.get());
    sim.add_host_route(kComIp, com.get());
    sim.add_host_route(kFooIp, foo.get());
    sim.add_host_route(kLrsIp, lrs.get());
    sim.set_default_latency(microseconds(200));  // 0.4 ms RTT, §IV.A
  }

  RecursiveResolverNode::Result resolve(const char* name,
                                        RrType type = RrType::A) {
    RecursiveResolverNode::Result out;
    bool done = false;
    lrs->resolve(*DomainName::parse(name), type,
                 [&](const RecursiveResolverNode::Result& r) {
                   out = r;
                   done = true;
                 });
    sim.run_for(seconds(10));
    EXPECT_TRUE(done) << "resolution did not complete for " << name;
    return out;
  }
};

TEST(Resolver, FullIterativeDescent) {
  Testbed t;
  auto r = t.resolve("www.foo.com");
  ASSERT_TRUE(r.ok);
  bool found = false;
  for (const auto& rr : r.answers) {
    if (rr.type == RrType::A &&
        std::get<dns::ARdata>(rr.rdata).address == Ipv4Address(192, 0, 2, 80)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Three iterative queries: root -> com -> foo.com.
  EXPECT_EQ(t.lrs->resolver_stats().iterative_queries, 3u);
  EXPECT_EQ(t.lrs->resolver_stats().referrals_followed, 2u);
}

TEST(Resolver, SecondLookupServedFromCache) {
  Testbed t;
  (void)t.resolve("www.foo.com");
  std::uint64_t q1 = t.lrs->resolver_stats().iterative_queries;
  auto r = t.resolve("www.foo.com");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(t.lrs->resolver_stats().iterative_queries, q1)
      << "cache hit must not issue new iterative queries";
}

TEST(Resolver, SiblingNameReusesDelegations) {
  Testbed t;
  (void)t.resolve("www.foo.com");
  std::uint64_t q1 = t.lrs->resolver_stats().iterative_queries;
  auto r = t.resolve("mail.foo.com");
  EXPECT_TRUE(r.ok);
  // Only one more query: straight to the (cached) foo.com server.
  EXPECT_EQ(t.lrs->resolver_stats().iterative_queries, q1 + 1);
}

TEST(Resolver, LatencyIsThreeRttForColdLookup) {
  Testbed t;
  auto r = t.resolve("www.foo.com");
  ASSERT_TRUE(r.ok);
  // 3 exchanges x 0.4 ms RTT plus service times.
  EXPECT_GE(r.elapsed.millis(), 1.2);
  EXPECT_LE(r.elapsed.millis(), 2.0);
}

TEST(Resolver, CnameChasedAcrossResponses) {
  Testbed t;
  auto r = t.resolve("web.foo.com");
  ASSERT_TRUE(r.ok);
  bool saw_cname = false, saw_a = false;
  for (const auto& rr : r.answers) {
    if (rr.type == RrType::CNAME) saw_cname = true;
    if (rr.type == RrType::A) saw_a = true;
  }
  EXPECT_TRUE(saw_cname);
  EXPECT_TRUE(saw_a);
}

TEST(Resolver, NxDomainPropagates) {
  Testbed t;
  auto r = t.resolve("missing.foo.com");
  EXPECT_TRUE(r.ok);  // resolution completed...
  EXPECT_EQ(r.rcode, dns::Rcode::NxDomain);  // ...with NXDOMAIN
}

TEST(Resolver, FailsOverToSecondRootHint) {
  Testbed t;
  // First hint is a black hole; the resolver must retry and then move on.
  RecursiveResolverNode::Config cfg;
  cfg.address = Ipv4Address(10, 0, 1, 2);
  cfg.root_hints = {Ipv4Address(10, 9, 9, 9), kRootIp};
  cfg.retry_timeout = milliseconds(20);
  cfg.max_retries = 1;
  auto lrs2 = std::make_unique<RecursiveResolverNode>(t.sim, "lrs2", cfg);
  t.sim.add_host_route(cfg.address, lrs2.get());

  RecursiveResolverNode::Result out;
  bool done = false;
  lrs2->resolve(*DomainName::parse("www.foo.com"), RrType::A,
                [&](const RecursiveResolverNode::Result& r) {
                  out = r;
                  done = true;
                });
  t.sim.run_for(seconds(10));
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.ok);
  EXPECT_GE(lrs2->resolver_stats().retransmissions, 1u);
}

TEST(Resolver, AllServersDeadGivesServfail) {
  Testbed t;
  RecursiveResolverNode::Config cfg;
  cfg.address = Ipv4Address(10, 0, 1, 3);
  cfg.root_hints = {Ipv4Address(10, 9, 9, 9)};
  cfg.retry_timeout = milliseconds(10);
  cfg.max_retries = 1;
  auto lrs2 = std::make_unique<RecursiveResolverNode>(t.sim, "lrs3", cfg);
  t.sim.add_host_route(cfg.address, lrs2.get());

  RecursiveResolverNode::Result out;
  bool done = false;
  lrs2->resolve(*DomainName::parse("www.foo.com"), RrType::A,
                [&](const RecursiveResolverNode::Result& r) {
                  out = r;
                  done = true;
                });
  t.sim.run_for(seconds(10));
  ASSERT_TRUE(done);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.rcode, dns::Rcode::ServFail);
}

TEST(Resolver, GluelessDelegationResolvedViaSubquery) {
  Testbed t;
  // com additionally delegates bar.com to ns.baz.com WITHOUT glue, and
  // baz.com (with glue) hosts ns.baz.com's address; bar.com lives on its
  // own server.
  Ipv4Address bar_ip(10, 0, 0, 4), baz_ip(10, 0, 0, 5);
  auto bar = std::make_unique<AuthoritativeServerNode>(
      t.sim, "bar", AuthoritativeServerNode::Config{.address = bar_ip});
  auto baz = std::make_unique<AuthoritativeServerNode>(
      t.sim, "baz", AuthoritativeServerNode::Config{.address = baz_ip});

  Zone barzone(*DomainName::parse("bar.com"));
  barzone.add_soa();
  barzone.add_a("www.bar.com.", Ipv4Address(192, 0, 2, 99));
  bar->add_zone(std::move(barzone));

  Zone bazzone(*DomainName::parse("baz.com"));
  bazzone.add_soa();
  bazzone.add_a("ns.baz.com.", bar_ip);  // ns.baz.com IS bar.com's server
  baz->add_zone(std::move(bazzone));

  // Extend the com zone served by t.com: glueless bar.com, glued baz.com.
  Zone extra(*DomainName::parse("com"));
  extra.add_ns("bar.com.", "ns.baz.com.");
  extra.add_ns("baz.com.", "ns1.baz.com.");
  extra.add_a("ns1.baz.com.", baz_ip);
  t.com->add_zone(std::move(extra));

  t.sim.add_host_route(bar_ip, bar.get());
  t.sim.add_host_route(baz_ip, baz.get());

  auto r = t.resolve("www.bar.com");
  ASSERT_TRUE(r.ok);
  bool found = false;
  for (const auto& rr : r.answers) {
    if (rr.type == RrType::A &&
        std::get<dns::ARdata>(rr.rdata).address == Ipv4Address(192, 0, 2, 99)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GE(t.lrs->resolver_stats().glue_subtasks, 1u);
}

TEST(Resolver, TruncationFallsBackToTcp) {
  Testbed t;
  // A name with enough A records that the UDP response exceeds 512 bytes.
  Zone big(*DomainName::parse("foo.com"));
  for (int i = 0; i < 40; ++i) {
    big.add_a("big.foo.com.", Ipv4Address(192, 0, 3, static_cast<std::uint8_t>(i)));
  }
  t.foo->add_zone(std::move(big));

  auto r = t.resolve("big.foo.com");
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.answers.size(), 40u);
  EXPECT_EQ(t.lrs->resolver_stats().tcp_fallbacks, 1u);
  EXPECT_GE(t.foo->ans_stats().tcp_queries, 1u);
  EXPECT_GE(t.foo->ans_stats().truncated, 1u);
}

TEST(Resolver, TcpQueryLeavesWithTheHandshakeAck) {
  // The truncated query's TCP resend leaves at the instant the handshake
  // completes, together with its ACK, not at some later retry.
  Testbed t;
  Zone big(*DomainName::parse("foo.com"));
  for (int i = 0; i < 40; ++i) {
    big.add_a("big.foo.com.",
              Ipv4Address(192, 0, 3, static_cast<std::uint8_t>(i)));
  }
  t.foo->add_zone(std::move(big));
  std::optional<SimTime> ack_at, query_at;
  t.sim.set_tap([&](SimTime at, const sim::Node* from, const sim::Node*,
                    const net::Packet& p) {
    if (from != t.lrs.get() || !p.is_tcp()) return;
    const net::TcpFlags f = p.flags;
    if (!ack_at && f.ack && !f.syn && !f.fin && p.payload.empty()) {
      ack_at = at;
    }
    if (!query_at && !p.payload.empty()) query_at = at;
  });

  auto r = t.resolve("big.foo.com");
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(ack_at.has_value());
  ASSERT_TRUE(query_at.has_value());
  EXPECT_EQ(query_at->ns, ack_at->ns);
}

TEST(Resolver, ServesNetworkClients) {
  Testbed t;
  Ipv4Address stub_ip(10, 0, 2, 1);
  auto stub = std::make_unique<StubResolverNode>(
      t.sim, "stub",
      StubResolverNode::Config{.address = stub_ip, .lrs_address = kLrsIp});
  t.sim.add_host_route(stub_ip, stub.get());

  StubResolverNode::Result out;
  bool done = false;
  stub->lookup(*DomainName::parse("www.foo.com"), RrType::A,
               [&](const StubResolverNode::Result& r) {
                 out = r;
                 done = true;
               });
  t.sim.run_for(seconds(10));
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.ok);
  ASSERT_FALSE(out.answers.empty());
  EXPECT_EQ(t.lrs->resolver_stats().client_queries, 1u);
  EXPECT_EQ(t.lrs->resolver_stats().client_responses, 1u);
}

TEST(Resolver, StubTimesOutWhenLrsDead) {
  sim::Simulator sim;
  Ipv4Address stub_ip(10, 0, 2, 1);
  auto stub = std::make_unique<StubResolverNode>(
      sim, "stub",
      StubResolverNode::Config{.address = stub_ip,
                               .lrs_address = Ipv4Address(10, 66, 66, 66),
                               .timeout = milliseconds(50),
                               .max_retries = 1});
  sim.add_host_route(stub_ip, stub.get());
  StubResolverNode::Result out;
  bool done = false;
  stub->lookup(*DomainName::parse("x.example"), RrType::A,
               [&](const StubResolverNode::Result& r) {
                 out = r;
                 done = true;
               });
  sim.run_for(seconds(5));
  ASSERT_TRUE(done);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(stub->stub_stats().timeouts, 1u);
  EXPECT_EQ(stub->stub_stats().retries, 1u);
}

TEST(AnsSimulator, AnswersEverythingAtFixedCost) {
  sim::Simulator sim;
  AnsSimulatorNode ans(sim, "anssim",
                       AnsSimulatorNode::Config{.address = kRootIp});
  sim.add_host_route(kRootIp, &ans);

  RecursiveResolverNode::Config cfg;
  cfg.address = kLrsIp;
  cfg.root_hints = {kRootIp};
  auto lrs = std::make_unique<RecursiveResolverNode>(sim, "lrs", cfg);
  sim.add_host_route(kLrsIp, lrs.get());

  RecursiveResolverNode::Result out;
  bool done = false;
  lrs->resolve(*DomainName::parse("anything.example"), RrType::A,
               [&](const RecursiveResolverNode::Result& r) {
                 out = r;
                 done = true;
               });
  sim.run_for(seconds(5));
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.ok);
  ASSERT_EQ(out.answers.size(), 1u);
  EXPECT_EQ(ans.ans_stats().udp_queries, 1u);
}

}  // namespace
}  // namespace dnsguard::server
