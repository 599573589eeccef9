// Runtime allocation gate for the DNS packet path.
//
// This binary replaces the global operator new with a counting one, so
// each test can measure the heap allocations a piece of the packet path
// makes once warmed up. None of it may allocate: the codec, the
// simulator's emit path, every guard path (hostile input included) and
// the testbed's traffic generators. Records hold their RDATA inline, and
// every node that handles packets decodes into and builds in messages it
// keeps across packets, so a warmed path reads 0 here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "attack/attackers.h"
#include "common/pool.h"
#include "dns/message.h"
#include "guard/remote_guard.h"
#include "ratelimit/limiters.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"
#include "workload/population.h"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dnsguard {
namespace {

using dns::DomainName;
using dns::Message;
using dns::ResourceRecord;
using dns::RrType;

/// Heap allocations made while `f` runs.
template <typename F>
std::uint64_t allocations_in(F&& f) {
  const std::uint64_t before = g_allocations;
  f();
  return g_allocations - before;
}

DomainName name(const char* text) { return *DomainName::parse(text); }

/// A referral-shaped response with every RDATA type that holds names.
Message referral() {
  Message m = Message::query(7, name("www.Foo.com"), RrType::A, false);
  m.header.qr = true;
  m.authority.push_back(
      ResourceRecord::ns(name("foo.com"), name("ns1.foo.com"), 3600));
  m.authority.push_back(ResourceRecord::soa(
      name("foo.com"), {name("ns1.FOO.com"), name("admin.foo.com")}, 300));
  m.answers.push_back(
      ResourceRecord::cname(name("alias.foo.com"), name("www.foo.com"), 60));
  m.additional.push_back(ResourceRecord::a(
      name("NS1.foo.com"), net::Ipv4Address(10, 0, 0, 3), 3600));
  m.additional.push_back(ResourceRecord{DomainName{}, RrType::OPT,
                                        dns::RrClass::IN, 0,
                                        dns::OptRdata{1232}});
  return m;
}

TEST(AllocBudget, DomainNameTransformsDoNotAllocate) {
  const DomainName www = name("www.Example.COM");
  const DomainName com = name("com");
  std::uint64_t sink = 0;
  const std::uint64_t n = allocations_in([&] {
    for (int i = 0; i < 100; ++i) {
      const DomainName s = www.suffix(2);
      const DomainName p = www.parent();
      const auto prefixed = www.parent().with_prefix_label("PRa1b2c3d4www");
      sink += s.label_count() + p.label_count();
      sink += prefixed.has_value() && *prefixed == www ? 0 : 1;
      sink += (s == p ? 1 : 0) + (www.is_subdomain_of(com) ? 1 : 0);
      sink += www.hash32();
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(sink, 0u);
}

TEST(AllocBudget, NameWireCodecDoesNotAllocate) {
  const DomainName a = name("www.foo.com");
  const DomainName b = name("mail.Foo.COM");
  Bytes buffer;
  buffer.reserve(512);
  ByteWriter w(std::move(buffer));
  std::uint64_t n = allocations_in([&] {
    dns::NameCompressor compressor;
    compressor.write(w, a);
    compressor.write(w, b);  // "mail" + pointer
    compressor.write(w, a);  // pure pointer
    dns::write_name_uncompressed(w, b);
  });
  EXPECT_EQ(n, 0u);

  const Bytes wire = std::move(w).take();
  DomainName out;
  bool ok = true;
  n = allocations_in([&] {
    dns::Cursor c{BytesView(wire)};
    for (int i = 0; i < 4; ++i) ok = read_name(c, out) && ok;
  });
  EXPECT_EQ(n, 0u);
  ASSERT_TRUE(ok);
  EXPECT_EQ(out, b);
}

TEST(AllocBudget, EncodeIntoWarmedBufferDoesNotAllocate) {
  const Message m = referral();
  Bytes out;
  m.encode_to(out);  // warm-up: the buffer grows once
  const Bytes first = out;
  const std::uint64_t n = allocations_in([&] {
    for (int i = 0; i < 10; ++i) m.encode_to(out);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(out, first);
}

TEST(AllocBudget, DecodeIntoWarmedMessageDoesNotAllocate) {
  Message query = Message::query(9, name("www.foo.com"), RrType::A, true);
  query.additional.push_back(ResourceRecord{DomainName{}, RrType::OPT,
                                            dns::RrClass::IN, 0,
                                            dns::OptRdata{4096}});
  crypto::Cookie cookie{};
  cookie.fill(0x42);
  guard::CookieEngine::attach_txt_cookie(query, cookie, 0);
  query.additional.push_back(ResourceRecord{
      DomainName{}, static_cast<RrType>(99), dns::RrClass::IN, 0,
      dns::RawRdata::of(99, Bytes(40, 0x17))});
  const Bytes query_wire = query.encode();
  const Bytes response_wire = referral().encode();

  Message m;
  // Warm-up: the sections grow to fit both shapes once.
  ASSERT_TRUE(Message::decode_into(BytesView(response_wire), m));
  ASSERT_TRUE(Message::decode_into(BytesView(query_wire), m));
  bool ok = true;
  const std::uint64_t n = allocations_in([&] {
    for (int i = 0; i < 10; ++i) {
      ok = Message::decode_into(BytesView(query_wire), m) && ok;
      ok = Message::decode_into(BytesView(response_wire), m) && ok;
    }
    ok = Message::decode_into(BytesView(query_wire), m) && ok;
  });
  EXPECT_EQ(n, 0u);
  ASSERT_TRUE(ok);
  EXPECT_EQ(m, query);
}

/// Passes a packet back and forth with its peer, decrementing the hop
/// count in its first payload byte, until the count reaches zero. Served
/// by the default discipline (one lane, bursts of one), so the measurement
/// covers the receive queue and the emit path: the ring, pooled payloads,
/// the outbox reused in place and event scheduling.
class PingPongNode final : public sim::Node {
 public:
  PingPongNode(sim::Simulator& sim, std::string name)
      : sim::Node(sim, std::move(name)) {}
  PingPongNode* peer = nullptr;
  std::uint64_t served = 0;

 protected:
  SimDuration process(const net::Packet& p) override {
    ++served;
    if (p.payload.empty() || p.payload[0] == 0) return microseconds(1);
    Bytes payload = BufferPool::local().acquire(p.payload.size());
    payload.assign(p.payload.begin(), p.payload.end());
    --payload[0];
    send_direct(peer,
                net::Packet::make_udp(p.dst(), p.src(), std::move(payload)));
    return microseconds(1);
  }
};

TEST(AllocBudget, EmittingNodeServiceDoesNotAllocate) {
  sim::Simulator sim;
  PingPongNode a(sim, "a");
  PingPongNode b(sim, "b");
  a.peer = &b;
  b.peer = &a;
  auto volley = [&](std::uint8_t hops) {
    Bytes payload = BufferPool::local().acquire(64);
    payload.assign(8, 0);
    payload[0] = hops;
    a.deliver(net::Packet::make_udp({net::Ipv4Address(10, 0, 0, 1), 1000},
                                    {net::Ipv4Address(10, 0, 0, 2), 2000},
                                    std::move(payload)));
  };
  volley(50);  // warm-up: event slabs, the buffer pool and the outboxes
  sim.run_all();
  volley(200);  // built outside the measurement
  const std::uint64_t served0 = a.served + b.served;
  const std::uint64_t n = allocations_in([&] { sim.run_all(); });
  EXPECT_EQ(a.served + b.served - served0, 201u);
  EXPECT_EQ(n, 0u);
}

// --- the guard's steady state ------------------------------------------------

constexpr net::Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr net::Ipv4Address kGuardIp(10, 1, 1, 253);
constexpr net::Ipv4Address kClientIp(10, 0, 1, 1);

/// Counts the allocations inside the guard's own process() calls,
/// requests and ANS replies apart.
class CountingGuard final : public guard::RemoteGuardNode {
 public:
  using RemoteGuardNode::RemoteGuardNode;
  std::uint64_t request_allocs = 0;
  std::uint64_t request_pkts = 0;
  std::uint64_t reply_allocs = 0;
  std::uint64_t reply_pkts = 0;

  void reset_counts() {
    request_allocs = request_pkts = reply_allocs = reply_pkts = 0;
  }

 protected:
  SimDuration process(const net::Packet& p) override {
    SimDuration cost{};
    const std::uint64_t n =
        allocations_in([&] { cost = RemoteGuardNode::process(p); });
    if (p.src_ip == config().ans_address) {
      reply_allocs += n;
      ++reply_pkts;
    } else {
      request_allocs += n;
      ++request_pkts;
    }
    return cost;
  }
};

class SinkNode final : public sim::Node {
 public:
  explicit SinkNode(sim::Simulator& sim) : sim::Node(sim, "client") {}

 protected:
  SimDuration process(const net::Packet&) override { return SimDuration{0}; }
};

/// One client behind a root guard in front of the ANS simulator.
struct GuardBed {
  sim::Simulator sim;
  server::AnsSimulatorNode ans{sim, "ans", {.address = kAnsIp}};
  SinkNode client{sim};
  std::unique_ptr<CountingGuard> guard;
  std::uint16_t next_id = 1;

  explicit GuardBed(guard::Scheme scheme) {
    guard::RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.subnet_base = net::Ipv4Address(10, 1, 1, 0);
    gc.scheme = scheme;
    gc.rl1.per_address_rate = 1e6;
    gc.rl1.per_address_burst = 1e5;
    gc.rl2.per_host_rate = 1e6;
    gc.rl2.per_host_burst = 1e5;
    gc.proxy_conn_rate = 1e6;  // a TCP driver opens one per query
    gc.proxy_conn_burst = 1e5;
    guard = std::make_unique<CountingGuard>(sim, "guard", gc, &ans);
    guard->install();
    sim.add_host_route(kClientIp, &client);
    sim.set_default_latency(microseconds(100));
  }

  /// Delivers `count` queries built by `make` (one fresh id each) to the
  /// guard, addressed to `dst`, and runs until every reply is back at the
  /// client.
  void send(int count, const std::function<Message(std::uint16_t)>& make,
            net::Ipv4Address dst) {
    for (int i = 0; i < count; ++i) {
      guard->deliver(net::Packet::make_udp({kClientIp, 5353},
                                           {dst, net::kDnsPort},
                                           make(next_id++).encode()));
    }
    sim.run_for(milliseconds(20));
  }

  struct PerPacket {
    double request;    // allocations per request
    double ans_reply;  // allocations per ANS reply (0 when none came back)
  };

  /// Warms the path up with `make`, then measures the guard's allocations
  /// over a batch.
  PerPacket per_packet(const std::function<Message(std::uint16_t)>& make,
                       net::Ipv4Address dst = kAnsIp) {
    send(64, make, dst);
    guard->reset_counts();
    send(64, make, dst);
    EXPECT_EQ(guard->request_pkts, 64u);
    return {static_cast<double>(guard->request_allocs) /
                static_cast<double>(guard->request_pkts),
            guard->reply_pkts == 0
                ? 0.0
                : static_cast<double>(guard->reply_allocs) /
                      static_cast<double>(guard->reply_pkts)};
  }
};

Message with_txt_cookie(std::uint16_t id, const crypto::Cookie& cookie) {
  Message m = Message::query(id, name("www.foo.com"), RrType::A, false);
  guard::CookieEngine::attach_txt_cookie(m, cookie, 0);
  return m;
}

TEST(AllocBudget, GuardModifiedDnsHitAndReplyRelay) {
  GuardBed bed(guard::Scheme::ModifiedDns);
  const crypto::Cookie cookie = bed.guard->cookie_engine().mint(kClientIp);
  const auto counts = bed.per_packet(
      [&](std::uint16_t id) { return with_txt_cookie(id, cookie); });
  EXPECT_EQ(bed.guard->reply_pkts, 64u);
  // The TXT cookie is decoded inline and stripped in place; the relayed
  // reply is copied into a pooled buffer.
  EXPECT_EQ(counts.request, 0.0);
  EXPECT_EQ(counts.ans_reply, 0.0);
}

TEST(AllocBudget, GuardModifiedDnsMint) {
  GuardBed bed(guard::Scheme::ModifiedDns);
  const auto counts = bed.per_packet(
      [](std::uint16_t id) { return with_txt_cookie(id, crypto::Cookie{}); });
  EXPECT_EQ(bed.guard->guard_stats().cookie_replies, 128u);
  // The cookie reply is the decoded request, turned around in place.
  EXPECT_EQ(counts.request, 0.0);
}

TEST(AllocBudget, GuardForgedTxtDrop) {
  GuardBed bed(guard::Scheme::ModifiedDns);
  crypto::Cookie forged{};
  forged.fill(0x5a);
  const auto counts = bed.per_packet(
      [&](std::uint16_t id) { return with_txt_cookie(id, forged); });
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped, 128u);
  EXPECT_EQ(bed.guard->reply_pkts, 0u);
  EXPECT_EQ(counts.request, 0.0);
}

TEST(AllocBudget, GuardNsNameHit) {
  GuardBed bed(guard::Scheme::NsName);
  const auto label =
      bed.guard->cookie_engine().make_cookie_label(kClientIp, "com");
  ASSERT_TRUE(label.has_value());
  const DomainName qname = *DomainName::parse(*label);
  const auto counts = bed.per_packet([&](std::uint16_t id) {
    return Message::query(id, qname, RrType::A, false);
  });
  EXPECT_EQ(bed.guard->guard_stats().cookie_checks, 128u);
  EXPECT_EQ(bed.guard->reply_pkts, 64u);
  // The cookie label is parsed in place and the question restored in
  // place; the ANS reply is rebuilt as the fabricated name's A records in
  // the decoded reply itself.
  EXPECT_EQ(counts.request, 0.0);
  EXPECT_EQ(counts.ans_reply, 0.0);
}

TEST(AllocBudget, GuardNsNameMiss) {
  GuardBed bed(guard::Scheme::NsName);
  const auto counts = bed.per_packet([](std::uint16_t id) {
    return Message::query(id, name("www.foo.com"), RrType::A, false);
  });
  EXPECT_EQ(bed.guard->guard_stats().fabricated_referrals, 128u);
  // The referral is the decoded request, turned around in place.
  EXPECT_EQ(counts.request, 0.0);
}

TEST(AllocBudget, GuardFabricatedNsIpMissHitAndRelay) {
  GuardBed bed(guard::Scheme::FabricatedNsIp);
  const auto miss = bed.per_packet([](std::uint16_t id) {
    return Message::query(id, name("www.foo.com"), RrType::A, false);
  });
  EXPECT_EQ(bed.guard->guard_stats().fabricated_referrals, 128u);
  EXPECT_EQ(miss.request, 0.0);

  // msg 3: the fabricated name, answered with the cookie address.
  guard::CookieEngine& engine = bed.guard->cookie_engine();
  const auto label = engine.make_cookie_label(kClientIp, "www");
  ASSERT_TRUE(label.has_value());
  const DomainName fabricated =
      *name("foo.com").with_prefix_label(*label);
  const auto hit = bed.per_packet([&](std::uint16_t id) {
    return Message::query(id, fabricated, RrType::A, false);
  });
  EXPECT_EQ(bed.guard->guard_stats().cookie_replies, 128u);
  EXPECT_EQ(hit.request, 0.0);

  // msg 7: the real query, sent to the cookie address; its reply is
  // relayed from that address (RelaySourceIp).
  const net::Ipv4Address cookie2 = engine.make_cookie_address(
      kClientIp, bed.guard->config().subnet_base, bed.guard->config().r_y);
  const auto relay = bed.per_packet(
      [](std::uint16_t id) {
        return Message::query(id, name("www.foo.com"), RrType::A, false);
      },
      cookie2);
  EXPECT_EQ(bed.guard->reply_pkts, 64u);
  EXPECT_EQ(relay.request, 0.0);
  EXPECT_EQ(relay.ans_reply, 0.0);
}

TEST(AllocBudget, GuardTcRedirect) {
  GuardBed bed(guard::Scheme::TcpRedirect);
  const auto counts = bed.per_packet([](std::uint16_t id) {
    return Message::query(id, name("www.foo.com"), RrType::A, false);
  });
  EXPECT_EQ(bed.guard->guard_stats().tc_redirects, 128u);
  EXPECT_EQ(counts.request, 0.0);
}

TEST(AllocBudget, GuardHostileAdditionalSection) {
  // A root TXT of 200 one-byte strings and 20 unknown-type records: the
  // sender picks how many strings and records there are, so none of them
  // may cost the guard an allocation.
  GuardBed bed(guard::Scheme::ModifiedDns);
  const auto counts = bed.per_packet([](std::uint16_t id) {
    Message m = Message::query(id, name("www.foo.com"), RrType::A, false);
    dns::TxtRdata txt;
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(txt.append(BytesView(Bytes{static_cast<std::uint8_t>(i)})));
    }
    m.additional.push_back(ResourceRecord::txt(DomainName{}, txt, 0));
    for (int i = 0; i < 20; ++i) {
      m.additional.push_back(ResourceRecord{
          DomainName{}, static_cast<RrType>(65280 + i), dns::RrClass::IN, 0,
          dns::RawRdata::of(static_cast<std::uint16_t>(65280 + i),
                            Bytes(4, static_cast<std::uint8_t>(i)))});
    }
    return m;
  });
  // No cookie among them: each gets the NS-name scheme's referral.
  EXPECT_EQ(bed.guard->guard_stats().fabricated_referrals, 128u);
  EXPECT_EQ(counts.request, 0.0);
}

TEST(AllocBudget, GuardLongFirstLabel) {
  // The sender picks the first label's length; a 63-byte one overflows the
  // cookie label and falls back to the TC redirect.
  const std::string label(63, 'x');
  for (const guard::Scheme scheme :
       {guard::Scheme::NsName, guard::Scheme::FabricatedNsIp}) {
    SCOPED_TRACE(guard::scheme_name(scheme));
    GuardBed bed(scheme);
    // Under a root guard the NS-name scheme refers the top-level label.
    const DomainName qname = scheme == guard::Scheme::NsName
                                 ? name(label.c_str())
                                 : *name("foo.com").with_prefix_label(label);
    const auto counts = bed.per_packet([&](std::uint16_t id) {
      return Message::query(id, qname, RrType::A, false);
    });
    EXPECT_EQ(bed.guard->guard_stats().tc_redirects, 128u);
    EXPECT_EQ(counts.request, 0.0);
  }
}

TEST(AllocBudget, GuardTcpProxyQuery) {
  // A closed-loop TCP driver behind the TCP proxy: the guard terminates
  // each connection, carries its query to the ANS as UDP and frames the
  // reply back.
  GuardBed bed(guard::Scheme::TcpRedirect);
  const net::Ipv4Address driver_ip(10, 0, 1, 2);
  workload::LrsSimulatorNode driver(
      bed.sim, "driver",
      {.address = driver_ip,
       .target = {kAnsIp, net::kDnsPort},
       .mode = workload::DriveMode::TcpDirect,
       .concurrency = 4});
  bed.sim.add_host_route(driver_ip, &driver);
  driver.start();
  bed.sim.run_for(milliseconds(20));  // warm-up
  bed.guard->reset_counts();
  const std::uint64_t queries = bed.guard->guard_stats().proxy_queries;
  bed.sim.run_for(milliseconds(20));
  const std::uint64_t measured =
      bed.guard->guard_stats().proxy_queries - queries;
  ASSERT_GT(measured, 100u);
  EXPECT_GT(bed.guard->request_pkts, 5 * measured);  // TCP segments
  EXPECT_EQ(bed.guard->reply_pkts, measured);
  // A connection, one per query here, takes a slot in the stack's table
  // and keeps its NAT-list head in its tag, so no segment allocates. A
  // relayed reply is framed in a pooled buffer.
  EXPECT_EQ(bed.guard->request_allocs, 0u);
  EXPECT_EQ(bed.guard->reply_allocs, 0u);
}

// --- the testbed's traffic generators ---------------------------------------

/// Heap allocations of a whole simulation window, taken after a warm-up
/// window of the same length: every node, the event queue and the network.
std::uint64_t warmed_window_allocations(sim::Simulator& sim) {
  sim.run_for(milliseconds(30));
  return allocations_in([&] { sim.run_for(milliseconds(30)); });
}

TEST(AllocBudget, LrsDriverModesDoNotAllocate) {
  // The modes hostbench drives, each against the scheme it speaks.
  const std::pair<workload::DriveMode, guard::Scheme> modes[] = {
      {workload::DriveMode::NsNameHit, guard::Scheme::NsName},
      {workload::DriveMode::NsNameMiss, guard::Scheme::NsName},
      {workload::DriveMode::FabricatedHit, guard::Scheme::FabricatedNsIp},
      {workload::DriveMode::ModifiedHit, guard::Scheme::ModifiedDns},
      {workload::DriveMode::TcpWithRedirect, guard::Scheme::TcpRedirect},
  };
  for (const auto& [mode, scheme] : modes) {
    SCOPED_TRACE(workload::drive_mode_name(mode));
    GuardBed bed(scheme);
    const net::Ipv4Address driver_ip(10, 0, 1, 2);
    workload::LrsSimulatorNode driver(bed.sim, "driver",
                                      {.address = driver_ip,
                                       .target = {kAnsIp, net::kDnsPort},
                                       .mode = mode,
                                       .concurrency = 8});
    bed.sim.add_host_route(driver_ip, &driver);
    // The driver keeps every latency sample; that vector's growth is not
    // per-packet work.
    driver.latencies().reserve(1 << 16);
    driver.start();
    EXPECT_EQ(warmed_window_allocations(bed.sim), 0u);
    EXPECT_GT(driver.driver_stats().completed, 100u);
    EXPECT_EQ(driver.driver_stats().timeouts, 0u);
  }
}

TEST(AllocBudget, SpoofedFloodsDoNotAllocate) {
  // hostbench's two floods: forged TXT cookies, and no cookie at all.
  for (const bool txt_cookie : {true, false}) {
    SCOPED_TRACE(txt_cookie ? "txt cookie" : "no cookie");
    GuardBed bed(guard::Scheme::ModifiedDns);
    attack::SpoofedFloodNode flood(
        bed.sim, "flood",
        {.own_address = net::Ipv4Address(10, 9, 9, 9),
         .target = {kAnsIp, net::kDnsPort},
         .rate = 100000,
         .seed = 3},
        {.random_txt_cookie = txt_cookie});
    flood.start();
    EXPECT_EQ(warmed_window_allocations(bed.sim), 0u);
    EXPECT_GT(flood.flood_stats().sent, 5000u);
  }
}

TEST(AllocBudget, ClientPopulationDoesNotAllocate) {
  // Few clients at equal rates, a small resolver cache and short RTTs, so
  // the warm-up fills every table the population and the guard keep
  // (their growth while they fill is not per-packet work).
  GuardBed bed(guard::Scheme::ModifiedDns);
  workload::ClientPopulationNode::Config pc;
  pc.population.num_clients = 8;
  pc.population.rate_classes = 1;
  pc.population.base_rate = 50000;
  pc.population.cache_capacity = 8;
  pc.population.cache_ttl = milliseconds(5);
  pc.population.rtt_buckets = {{1.0, milliseconds(1)}};
  pc.population.primed_fraction = 0.5;
  pc.target = {kAnsIp, net::kDnsPort};
  workload::ClientPopulationNode population(bed.sim, "population", pc);
  population.start();
  EXPECT_EQ(warmed_window_allocations(bed.sim), 0u);
  EXPECT_GT(population.population_stats().acquisitions, 100u);
  EXPECT_GT(population.population_stats().completed, 100u);
}

TEST(AllocBudget, Rl1UnseenSourceDoesNotAllocate) {
  // A spoofed flood sends every packet from a fresh source, so each one
  // evicts an RL1 tracker entry. With the tracker full, that eviction
  // and the heavy-hitter bucket behind it must not touch the allocator.
  ratelimit::CookieResponseLimiter rl1(ratelimit::CookieResponseLimiter::Config{
      .tracker_capacity = 256, .heavy_hitter_threshold = 4, .max_buckets = 64});
  std::uint32_t next_source = 0x0a000001;
  auto fresh = [&] { return net::Ipv4Address(next_source++); };
  SimTime t{};
  // Fill the tracker, then warm its index free list and the bucket table.
  for (int i = 0; i < 4096; ++i) rl1.allow(fresh(), t);
  const std::uint64_t allocs = allocations_in([&] {
    for (int i = 0; i < 4096; ++i) rl1.allow(fresh(), t);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(rl1.tracked_buckets(), 0u) << "the bucket path ran too";
}

}  // namespace
}  // namespace dnsguard
