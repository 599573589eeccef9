// LocalGuardNode unit behaviour (modified-DNS scheme, LRS side).
//
// Uses a bare probe node as the "LRS" and a scripted peer as the "ANS
// side" so each message of Fig. 3 can be asserted individually.
#include <gtest/gtest.h>

#include <deque>

#include "guard/cookie_engine.h"
#include "guard/local_guard.h"
#include "sim/simulator.h"

namespace dnsguard::guard {
namespace {

using net::Ipv4Address;
using net::Packet;

constexpr Ipv4Address kLrsIp(10, 0, 1, 1);
constexpr Ipv4Address kAnsIp(10, 5, 5, 5);

/// Captures everything delivered to it.
class SinkNode : public sim::Node {
 public:
  SinkNode(sim::Simulator& s, std::string name)
      : sim::Node(s, std::move(name)) {}
  std::vector<Packet> received;

 protected:
  SimDuration process(const Packet& p) override {
    received.push_back(p);
    return SimDuration{};
  }
};

struct Bed {
  sim::Simulator sim;
  SinkNode lrs{sim, "lrs"};
  SinkNode ans{sim, "ans"};
  std::unique_ptr<LocalGuardNode> lg;

  explicit Bed(LocalGuardNode::Config cfg = {}) {
    cfg.lrs_address = kLrsIp;
    lg = std::make_unique<LocalGuardNode>(sim, "local-guard", cfg, &lrs);
    lg->install();
    sim.add_host_route(kAnsIp, &ans);
  }

  /// The LRS emits a query toward the ANS (passes through the guard via
  /// the LRS gateway).
  void lrs_sends_query(std::uint16_t id) {
    dns::Message q = dns::Message::query(
        id, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false);
    sim.send_packet(&lrs, Packet::make_udp({kLrsIp, net::kDnsPort},
                                           {kAnsIp, net::kDnsPort},
                                           q.encode()));
    sim.run_for(milliseconds(5));
  }

  /// The ANS side answers with `m` (addressed to the LRS).
  void ans_sends(const dns::Message& m) {
    sim.send_packet(&ans, Packet::make_udp({kAnsIp, net::kDnsPort},
                                           {kLrsIp, net::kDnsPort},
                                           m.encode()));
    sim.run_for(milliseconds(5));
  }

  static dns::Message decode(const Packet& p) {
    auto m = dns::Message::decode(BytesView(p.payload));
    EXPECT_TRUE(m.has_value());
    return m.value_or(dns::Message{});
  }
};

TEST(LocalGuard, FirstQueryHeldAndProbeSent) {
  Bed bed;
  bed.lrs_sends_query(100);
  // Exactly one packet reached the ANS: the zero-cookie probe (msg 2).
  ASSERT_EQ(bed.ans.received.size(), 1u);
  auto probe = Bed::decode(bed.ans.received[0]);
  auto cookie = CookieEngine::extract_txt_cookie(probe);
  ASSERT_TRUE(cookie.has_value());
  EXPECT_TRUE(CookieEngine::is_zero_cookie(*cookie));
  EXPECT_EQ(bed.lg->local_stats().queries_held, 1u);
}

TEST(LocalGuard, CookieReplyReleasesHeldQueriesWithCookie) {
  Bed bed;
  bed.lrs_sends_query(100);
  ASSERT_EQ(bed.ans.received.size(), 1u);
  auto probe = Bed::decode(bed.ans.received[0]);

  // The remote guard's msg 3: same id, cookie TXT, no answers.
  CookieEngine engine(9);
  dns::Message msg3 = dns::Message::response_to(probe);
  CookieEngine::strip_txt_cookie(msg3);
  CookieEngine::attach_txt_cookie(msg3, engine.mint(kLrsIp), 3600);
  bed.ans_sends(msg3);

  // The held query went out with the real cookie (msg 4).
  ASSERT_EQ(bed.ans.received.size(), 2u);
  auto msg4 = Bed::decode(bed.ans.received[1]);
  auto cookie = CookieEngine::extract_txt_cookie(msg4);
  ASSERT_TRUE(cookie.has_value());
  EXPECT_EQ(*cookie, engine.mint(kLrsIp));
  EXPECT_EQ(msg4.header.id, 100);
  // msg 3 itself was consumed, not delivered to the LRS.
  EXPECT_TRUE(bed.lrs.received.empty());
  EXPECT_TRUE(bed.lg->has_cookie_for(kAnsIp));
}

TEST(LocalGuard, SubsequentQueriesGetCookieImmediately) {
  Bed bed;
  bed.lrs_sends_query(100);
  auto probe = Bed::decode(bed.ans.received[0]);
  CookieEngine engine(9);
  dns::Message msg3 = dns::Message::response_to(probe);
  CookieEngine::strip_txt_cookie(msg3);
  CookieEngine::attach_txt_cookie(msg3, engine.mint(kLrsIp), 3600);
  bed.ans_sends(msg3);
  std::size_t before = bed.ans.received.size();

  bed.lrs_sends_query(101);
  ASSERT_EQ(bed.ans.received.size(), before + 1);
  auto direct = Bed::decode(bed.ans.received.back());
  EXPECT_TRUE(CookieEngine::extract_txt_cookie(direct).has_value());
  EXPECT_EQ(bed.lg->local_stats().cookie_requests, 1u);
}

TEST(LocalGuard, CookieExpiryTriggersNewExchange) {
  LocalGuardNode::Config cfg;
  Bed bed(cfg);
  bed.lrs_sends_query(100);
  auto probe = Bed::decode(bed.ans.received[0]);
  CookieEngine engine(9);
  dns::Message msg3 = dns::Message::response_to(probe);
  CookieEngine::strip_txt_cookie(msg3);
  CookieEngine::attach_txt_cookie(msg3, engine.mint(kLrsIp), /*ttl=*/1);
  bed.ans_sends(msg3);

  bed.sim.run_for(seconds(2));  // cookie TTL elapses
  bed.lrs_sends_query(101);
  EXPECT_EQ(bed.lg->local_stats().cookie_requests, 2u);
}

TEST(LocalGuard, UnguardedAnsAnsweredPlainlyAndRemembered) {
  Bed bed;
  bed.lrs_sends_query(100);
  auto probe = Bed::decode(bed.ans.received[0]);

  // An unguarded ANS answers the probe like a normal query (no cookie).
  dns::Message plain = dns::Message::response_to(probe);
  plain.answers.push_back(dns::ResourceRecord::a(
      *dns::DomainName::parse("www.foo.com"), Ipv4Address(192, 0, 2, 80),
      60));
  bed.ans_sends(plain);

  // Delivered straight to the LRS; the server is marked not-capable.
  ASSERT_EQ(bed.lrs.received.size(), 1u);
  EXPECT_EQ(Bed::decode(bed.lrs.received[0]).header.id, 100);

  // The next query flows through WITHOUT a probe or held state.
  bed.lrs_sends_query(101);
  ASSERT_EQ(bed.ans.received.size(), 2u);
  auto next = Bed::decode(bed.ans.received[1]);
  EXPECT_FALSE(CookieEngine::extract_txt_cookie(next).has_value());
  EXPECT_EQ(bed.lg->local_stats().cookie_requests, 1u);
}

TEST(LocalGuard, TimeoutReleasesHeldQueriesPlainly) {
  LocalGuardNode::Config cfg;
  cfg.cookie_request_timeout = milliseconds(50);
  Bed bed(cfg);
  bed.lrs_sends_query(100);
  EXPECT_EQ(bed.ans.received.size(), 1u);  // only the probe so far
  // Nobody ever answers; after the timeout the original goes out bare.
  bed.sim.run_for(milliseconds(100));
  ASSERT_EQ(bed.ans.received.size(), 2u);
  auto released = Bed::decode(bed.ans.received[1]);
  EXPECT_FALSE(CookieEngine::extract_txt_cookie(released).has_value());
  EXPECT_EQ(bed.lg->local_stats().released_without_cookie, 1u);
}

TEST(LocalGuard, StaleCookieTimerLeavesANewBucketAlone) {
  // An ANS's held bucket is released and re-created within one cookie
  // request timeout (500 ms): here its not-capable mark expires. The
  // first bucket's timer must not release the second bucket's query.
  LocalGuardNode::Config cfg;
  cfg.not_capable_ttl = milliseconds(20);
  Bed bed(cfg);
  bed.lrs_sends_query(100);  // t≈0: held, probed, timer due at ~500 ms
  dns::Message plain =
      dns::Message::response_to(Bed::decode(bed.ans.received[0]));
  plain.answers.push_back(dns::ResourceRecord::a(
      *dns::DomainName::parse("www.foo.com"), Ipv4Address(192, 0, 2, 80),
      60));
  bed.ans_sends(plain);  // ~5 ms: answered without a cookie, not capable
  bed.sim.run_until(SimTime{} + milliseconds(100));  // the mark expired
  bed.lrs_sends_query(200);  // a new bucket; its timer is due at ~600 ms
  bed.sim.run_until(SimTime{} + milliseconds(550));
  EXPECT_EQ(bed.lg->local_stats().released_without_cookie, 0u);
  bed.sim.run_until(SimTime{} + milliseconds(650));
  EXPECT_EQ(bed.lg->local_stats().released_without_cookie, 1u);
}

TEST(LocalGuard, AnswerWithRefreshedCookieIsStrippedAndCached) {
  Bed bed;
  // Prime a cookie.
  bed.lrs_sends_query(100);
  auto probe = Bed::decode(bed.ans.received[0]);
  CookieEngine engine(9);
  dns::Message msg3 = dns::Message::response_to(probe);
  CookieEngine::strip_txt_cookie(msg3);
  CookieEngine::attach_txt_cookie(msg3, engine.mint(kLrsIp), 3600);
  bed.ans_sends(msg3);
  bed.lrs.received.clear();

  // A real answer carrying a refreshed cookie comes back.
  dns::Message answer;
  answer.header.id = 100;
  answer.header.qr = true;
  answer.answers.push_back(dns::ResourceRecord::a(
      *dns::DomainName::parse("www.foo.com"), Ipv4Address(192, 0, 2, 80),
      60));
  engine.rotate(10);
  CookieEngine::attach_txt_cookie(answer, engine.mint(kLrsIp), 3600);
  bed.ans_sends(answer);

  ASSERT_EQ(bed.lrs.received.size(), 1u);
  auto delivered = Bed::decode(bed.lrs.received[0]);
  // The LRS never sees the cookie extension.
  EXPECT_FALSE(CookieEngine::extract_txt_cookie(delivered).has_value());
  EXPECT_EQ(delivered.answers.size(), 1u);
  EXPECT_TRUE(bed.lg->has_cookie_for(kAnsIp));
}

TEST(LocalGuard, HeldQueueBounded) {
  LocalGuardNode::Config cfg;
  cfg.max_held_per_ans = 4;
  Bed bed(cfg);
  for (std::uint16_t i = 0; i < 10; ++i) bed.lrs_sends_query(200 + i);
  EXPECT_EQ(bed.lg->local_stats().queries_held, 4u);
}

TEST(LocalGuard, QueryPastTheHeldCapIsChargedToAReason) {
  LocalGuardNode::Config cfg;
  cfg.max_held_per_ans = 2;
  Bed bed(cfg);
  for (std::uint16_t i = 0; i < 3; ++i) bed.lrs_sends_query(300 + i);
  // The ANS never answers; the cookie request times out.
  bed.sim.run_for(cfg.cookie_request_timeout + milliseconds(10));
  const obs::Counter* dropped =
      bed.sim.metrics().find_counter("local_guard.drop.state_table_full");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 1u);
  EXPECT_EQ(bed.lg->local_stats().queries_held, 2u);
  EXPECT_EQ(bed.lg->local_stats().released_without_cookie, 2u);
  // The zero-cookie probe and the two held queries.
  EXPECT_EQ(bed.ans.received.size(), 3u);
}

TEST(LocalGuard, ExpiredMapEntriesAreSwept) {
  // Regression: cookies_ and not_capable_until_ grew without bound over
  // long runs against many distinct ANSs.
  LocalGuardNode::Config cfg;
  cfg.not_capable_ttl = seconds(1);
  Bed bed(cfg);

  // Cache a short-TTL cookie from each of 50 distinct "remote guards" by
  // delivering cookie replies with distinct source addresses.
  CookieEngine engine(9);
  for (std::uint32_t i = 0; i < 50; ++i) {
    dns::Message msg3;
    msg3.header.id = static_cast<std::uint16_t>(i);
    msg3.header.qr = true;
    CookieEngine::attach_txt_cookie(msg3, engine.mint(kLrsIp), /*ttl=*/1);
    bed.sim.send_packet(&bed.ans,
                        Packet::make_udp({Ipv4Address(0x0a060000u + i),
                                          net::kDnsPort},
                                         {kLrsIp, net::kDnsPort},
                                         msg3.encode()));
  }
  // Mark another 50 ANSs not-capable (plain responses while held state
  // exists is the normal path; here we poke the map via a cookie-less
  // response after a probe, so just run queries against unguarded ANSs).
  bed.sim.run_for(milliseconds(5));
  EXPECT_EQ(bed.lg->cookie_cache_size(), 50u);

  // Everything expires; background traffic triggers the per-packet reap.
  bed.sim.run_for(seconds(3));
  for (std::uint16_t i = 0; i < 20; ++i) {
    dns::Message q = dns::Message::query(
        i, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, true);
    bed.sim.send_packet(&bed.ans, Packet::make_udp({kAnsIp, 34000},
                                                   {kLrsIp, net::kDnsPort},
                                                   q.encode()));
  }
  bed.sim.run_for(milliseconds(5));
  EXPECT_EQ(bed.lg->cookie_cache_size(), 0u);
  EXPECT_EQ(bed.lg->not_capable_size(), 0u);
}

TEST(LocalGuard, NotCapableMapStaysBounded) {
  LocalGuardNode::Config cfg;
  cfg.not_capable_ttl = milliseconds(100);
  cfg.cookie_request_timeout = milliseconds(20);
  Bed bed(cfg);

  // Round after round of unguarded ANSs: each probe is answered plainly,
  // marking the server not-capable; entries must decay, not accumulate.
  std::size_t peak = 0;
  for (std::uint32_t round = 0; round < 8; ++round) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      Ipv4Address ans_ip(0x0a070000u + round * 10 + i);
      dns::Message q = dns::Message::query(
          static_cast<std::uint16_t>(round * 10 + i),
          *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false);
      bed.sim.send_packet(&bed.lrs, Packet::make_udp({kLrsIp, net::kDnsPort},
                                                     {ans_ip, net::kDnsPort},
                                                     q.encode()));
      // The probe times out (nothing routes these addresses back), and a
      // plain response from the ANS marks it not-capable.
      bed.sim.run_for(milliseconds(5));
      dns::Message plain;
      plain.header.id = static_cast<std::uint16_t>(round * 10 + i);
      plain.header.qr = true;
      bed.sim.send_packet(&bed.ans, Packet::make_udp({ans_ip, net::kDnsPort},
                                                     {kLrsIp, net::kDnsPort},
                                                     plain.encode()));
      bed.sim.run_for(milliseconds(5));
    }
    peak = std::max(peak, bed.lg->not_capable_size());
    bed.sim.run_for(milliseconds(200));  // past not_capable_ttl
  }
  // 80 servers were marked in total; the reap keeps only the live window.
  EXPECT_LE(peak, 20u);
  bed.sim.run_for(milliseconds(500));
  // One final packet burst to trigger the reap on a quiet guard.
  for (std::uint16_t i = 0; i < 8; ++i) {
    dns::Message q = dns::Message::query(
        900 + i, *dns::DomainName::parse("www.foo.com"), dns::RrType::A,
        true);
    bed.sim.send_packet(&bed.ans, Packet::make_udp({kAnsIp, 34000},
                                                   {kLrsIp, net::kDnsPort},
                                                   q.encode()));
  }
  bed.sim.run_for(milliseconds(5));
  EXPECT_EQ(bed.lg->not_capable_size(), 0u);
}

TEST(LocalGuard, StubQueriesToLrsPassThrough) {
  Bed bed;
  // A stub's recursive query addressed TO the LRS must reach it.
  dns::Message q = dns::Message::query(
      55, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, true);
  bed.sim.send_packet(&bed.ans, Packet::make_udp({kAnsIp, 34000},
                                                 {kLrsIp, net::kDnsPort},
                                                 q.encode()));
  bed.sim.run_for(milliseconds(5));
  ASSERT_EQ(bed.lrs.received.size(), 1u);
  EXPECT_EQ(Bed::decode(bed.lrs.received[0]).header.id, 55);
}

}  // namespace
}  // namespace dnsguard::guard
