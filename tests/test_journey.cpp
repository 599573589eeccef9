// JourneyTracker unit tests plus an end-to-end journey through the
// full stack: stub -> LRS -> guard -> ANS and back, with every hop
// contributing stage marks to one correlated journey.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dns/name.h"
#include "guard/remote_guard.h"
#include "obs/journey.h"
#include "server/authoritative_node.h"
#include "server/resolver_node.h"
#include "server/stub_node.h"
#include "server/zone.h"
#include "sim/simulator.h"
#include "obs_test_support.h"

namespace dnsguard {
namespace {

using obs::JourneyKey;
using obs::JourneyTracker;

SimTime at(std::int64_t us) { return SimTime{} + microseconds(us); }

TEST(JourneyTracker, DisabledIsNoOp) {
  JourneyTracker jt;
  EXPECT_FALSE(jt.enabled());
  jt.mark({1, 2, 3}, "a", at(1));
  jt.end({1, 2, 3}, "b", at(2), true);
  EXPECT_EQ(jt.active_count(), 0u);
  EXPECT_EQ(jt.completed_count(), 0u);
  EXPECT_EQ(jt.stats().started, 0u);
}

TEST(JourneyTracker, MarkStartsAndEndCompletes) {
  JourneyTracker jt;
  jt.enable(16, 16);
  JourneyKey k{0x0a000101u, 42, 7};
  jt.mark(k, "stub.query", at(0));
  jt.mark(k, "guard.rx", at(100));
  EXPECT_EQ(jt.active_count(), 1u);
  const JourneyTracker::Journey* j = jt.find(k);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->n_events, 2u);
  EXPECT_EQ(j->events[0].stage, "stub.query");

  jt.end(k, "stub.answered", at(400), /*ok=*/true);
  EXPECT_EQ(jt.active_count(), 0u);
  EXPECT_EQ(jt.completed_count(), 1u);
  auto done = jt.completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_TRUE(done[0].ended);
  EXPECT_EQ(done[0].n_events, 3u);
  EXPECT_EQ(done[0].duration().ns, microseconds(400).ns);
  EXPECT_EQ(jt.stats().completed, 1u);
  EXPECT_EQ(jt.stats().failed, 0u);
}

TEST(JourneyTracker, AliasMergesKeys) {
  JourneyTracker jt;
  jt.enable(16, 16);
  JourneyKey client{0x0a000101u, 42, 7};
  JourneyKey upstream{0x0a000102u, 999, 8};
  jt.mark(client, "lrs.client_rx", at(0));
  jt.alias(client, upstream);
  jt.mark(upstream, "guard.rx", at(50));  // lands on the same journey
  EXPECT_EQ(jt.active_count(), 1u);
  const auto* j = jt.find(upstream);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->n_events, 2u);
  EXPECT_EQ(j->n_keys, 2u);
  // Ending via the alias completes the single journey.
  jt.end(upstream, "lrs.respond", at(90), true);
  EXPECT_EQ(jt.completed_count(), 1u);
  EXPECT_EQ(jt.active_count(), 0u);
}

TEST(JourneyTracker, AliasUnknownExistingIsNoOp) {
  JourneyTracker jt;
  jt.enable(16, 16);
  jt.alias({1, 1, 1}, {2, 2, 2});
  EXPECT_EQ(jt.active_count(), 0u);
  jt.mark({2, 2, 2}, "x", at(0));
  EXPECT_EQ(jt.active_count(), 1u);  // fresh journey, not an alias
}

TEST(JourneyTracker, EndOnUnknownKeyMakesSingleEventJourney) {
  JourneyTracker jt;
  jt.enable(16, 16);
  jt.end({5, 5, 5}, "guard.drop", at(10), /*ok=*/false);
  EXPECT_EQ(jt.completed_count(), 1u);
  auto done = jt.completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_FALSE(done[0].ok);
  EXPECT_EQ(done[0].n_events, 1u);
  EXPECT_EQ(jt.stats().failed, 1u);
}

TEST(JourneyTracker, ContinueOnlyMarksNeverOpenAJourney) {
  JourneyTracker jt;
  jt.enable(16, 16);
  jt.mark({5, 5, 0}, "tcp.closed", at(10), /*may_open=*/false);
  jt.end({5, 5, 5}, "drv.timeout", at(11), /*ok=*/false, /*may_open=*/false);
  EXPECT_EQ(jt.active_count(), 0u);
  EXPECT_EQ(jt.completed_count(), 0u);
  EXPECT_EQ(jt.stats().started, 0u);
  // On an open journey they act as mark() and end() do.
  jt.mark({5, 5, 5}, "drv.send", at(12));
  jt.mark({5, 5, 5}, "tcp.closed", at(13), /*may_open=*/false);
  jt.end({5, 5, 5}, "drv.timeout", at(14), /*ok=*/false, /*may_open=*/false);
  auto done = jt.completed();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].n_events, 3u);
  EXPECT_FALSE(done[0].ok);
}

TEST(JourneyTracker, PoolFullEvictsOldestOpen) {
  JourneyTracker jt;
  jt.enable(4, 8);
  for (std::uint16_t i = 0; i < 12; ++i) {
    jt.mark({1, i, 1}, "a", at(i));
  }
  // Pool is 4 (rounded to a power of two); the rest forced evictions.
  EXPECT_LE(jt.active_count(), 4u);
  EXPECT_GE(jt.stats().evicted_open.value(), 8u);
  EXPECT_EQ(jt.stats().started, 12u);
}

TEST(JourneyTracker, EventListFullDropsMarks) {
  JourneyTracker jt;
  jt.enable(4, 4);
  JourneyKey k{9, 9, 9};
  for (int i = 0; i < 30; ++i) jt.mark(k, "s", at(i));
  const auto* j = jt.find(k);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->n_events, JourneyTracker::kMaxEvents);
  EXPECT_EQ(jt.stats().marks_dropped.value(),
            30u - JourneyTracker::kMaxEvents);
  // `last` still advances so duration() covers dropped marks.
  EXPECT_EQ(j->last.ns, at(29).ns);
}

TEST(JourneyTracker, CompletedRingOverwritesOldest) {
  JourneyTracker jt;
  jt.enable(8, 4);
  for (std::uint16_t i = 0; i < 10; ++i) {
    JourneyKey k{1, i, 2};
    jt.mark(k, "a", at(i));
    jt.end(k, "b", at(i + 100), true);
  }
  EXPECT_EQ(jt.completed_count(), 4u);  // ring capacity
  auto done = jt.completed();
  ASSERT_EQ(done.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_LT(done[0].seq, done[3].seq);
  EXPECT_EQ(jt.stats().completed, 10u);
}

TEST(JourneyTracker, ClearDropsEverythingButStaysEnabled) {
  JourneyTracker jt;
  jt.enable(8, 8);
  jt.mark({1, 1, 1}, "a", at(0));
  jt.end({1, 1, 1}, "b", at(1), true);
  jt.mark({2, 2, 2}, "a", at(2));
  jt.clear();
  EXPECT_TRUE(jt.enabled());
  EXPECT_EQ(jt.active_count(), 0u);
  EXPECT_EQ(jt.completed_count(), 0u);
  jt.mark({3, 3, 3}, "a", at(3));
  EXPECT_EQ(jt.active_count(), 1u);
}

TEST(JourneyTracker, ChromeJsonHasSlices) {
  JourneyTracker jt;
  jt.enable(8, 8);
  JourneyKey k{0x0a000101u, 7, 3};
  jt.mark(k, "stub.query", at(0));
  jt.mark(k, "guard.rx", at(200));
  jt.end(k, "stub.answered", at(500), true);
  std::string json = jt.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("stub.query"), std::string::npos);
  EXPECT_NE(json.find("guard.rx"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
}

TEST(DomainNameHash, CaseInsensitiveAndLabelSensitive) {
  auto a = dns::DomainName::parse("www.Foo.COM.");
  auto b = dns::DomainName::parse("www.foo.com.");
  auto c = dns::DomainName::parse("wwwfoo.com.");
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->hash32(), b->hash32());
  EXPECT_NE(b->hash32(), c->hash32());  // label structure must matter
}

// --- end-to-end: stub -> LRS -> guarded root hierarchy and back ---

constexpr net::Ipv4Address kRootIp(10, 1, 1, 254);
constexpr net::Ipv4Address kRootGuardIp(10, 1, 1, 253);
constexpr net::Ipv4Address kComIp(10, 0, 0, 2);
constexpr net::Ipv4Address kFooIp(10, 2, 2, 254);
constexpr net::Ipv4Address kLrsIp(10, 0, 0, 53);
constexpr net::Ipv4Address kStubIp(10, 0, 0, 7);

TEST(JourneyEndToEnd, StubQueryProducesOneCorrelatedJourney) {
  sim::Simulator sim;
  sim.set_default_latency(microseconds(200));
  sim.journeys().enable();
  testing_support::arm_failure_dump([&](const std::string& test) {
    sim.flight_recorder().dump(test, sim.now());
  });

  // Real root/com/foo hierarchy; the root sits behind an NS-name guard,
  // so the unmodified LRS completes the cookie dance purely by following
  // referrals (no local guard in the path).
  auto h = server::make_example_hierarchy(kRootIp, kComIp, kFooIp);
  server::AuthoritativeServerNode root(sim, "root", {.address = kRootIp});
  server::AuthoritativeServerNode com(sim, "com", {.address = kComIp});
  server::AuthoritativeServerNode foo(sim, "foo", {.address = kFooIp});
  root.add_zone(std::move(h.root));
  com.add_zone(std::move(h.com));
  foo.add_zone(std::move(h.foo_com));
  sim.add_host_route(kRootIp, &root);
  sim.add_host_route(kComIp, &com);
  sim.add_host_route(kFooIp, &foo);

  server::RecursiveResolverNode::Config rc;
  rc.address = kLrsIp;
  rc.root_hints = {kRootIp};
  rc.retry_timeout = milliseconds(100);
  server::RecursiveResolverNode lrs(sim, "lrs", rc);
  sim.add_host_route(kLrsIp, &lrs);

  sim.remove_routes_to(&root);
  guard::RemoteGuardNode::Config gc;
  gc.guard_address = kRootGuardIp;
  gc.ans_address = kRootIp;
  gc.protected_zone = *dns::DomainName::parse(".");
  gc.subnet_base = net::Ipv4Address(10, 1, 1, 0);
  gc.r_y = 250;
  gc.scheme = guard::Scheme::NsName;
  guard::RemoteGuardNode guard(sim, "root-guard", gc, &root);
  guard.install(24);

  server::StubResolverNode stub(
      sim, "stub", {.address = kStubIp, .lrs_address = kLrsIp});
  sim.add_host_route(kStubIp, &stub);

  bool answered = false;
  auto qname = dns::DomainName::parse("www.foo.com.");
  ASSERT_TRUE(qname);
  stub.lookup(*qname, dns::RrType::A,
              [&](const server::StubResolverNode::Result& r) {
                answered = r.ok;
              });
  sim.run_for(seconds(5));
  ASSERT_TRUE(answered);

  // The stub's journey completed and carries marks from several layers.
  auto done = sim.journeys().completed();
  ASSERT_GE(done.size(), 1u);
  // Find the stub journey (first key = stub's source).
  const JourneyTracker::Journey* stub_j = nullptr;
  for (const auto& j : done) {
    if (j.first_key.src == kStubIp.value()) stub_j = &j;
  }
  ASSERT_NE(stub_j, nullptr);
  EXPECT_TRUE(stub_j->ok);
  std::vector<std::string_view> stages;
  for (std::size_t i = 0; i < stub_j->n_events; ++i) {
    stages.push_back(stub_j->events[i].stage);
  }
  auto has = [&](std::string_view s) {
    return std::find(stages.begin(), stages.end(), s) != stages.end();
  };
  EXPECT_TRUE(has("stub.query")) << sim.journeys().to_chrome_json(true);
  EXPECT_TRUE(has("lrs.client_rx"));
  EXPECT_TRUE(has("lrs.iterative"));
  EXPECT_TRUE(has("stub.answered"));
  // The guard leg merged in via the LRS upstream alias.
  EXPECT_TRUE(has("guard.rx")) << sim.journeys().to_chrome_json(true);
  // Stage timestamps are monotone.
  for (std::size_t i = 1; i < stub_j->n_events; ++i) {
    EXPECT_LE(stub_j->events[i - 1].at.ns, stub_j->events[i].at.ns);
  }
}

}  // namespace
}  // namespace dnsguard
