// Runtime allocation gate for the DNS packet path.
//
// This binary replaces the global operator new with a counting one, so
// each test can measure the heap allocations a piece of the packet path
// makes once warmed up. The codec and the simulator's emit path must not
// allocate at all. The guard still allocates in known places (TXT cookie
// strings, responses built by Message::response_to, cookie-label strings,
// the copy of a relayed packet, the TCP stack's index entry for each
// connection), so its per-packet counts are pinned: a
// change that adds an allocation fails here, and one that removes one
// lowers the pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "common/pool.h"
#include "dns/message.h"
#include "guard/remote_guard.h"
#include "ratelimit/limiters.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

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
  /// guard and runs until every reply is back at the client.
  void send(int count, const std::function<Message(std::uint16_t)>& make) {
    for (int i = 0; i < count; ++i) {
      guard->deliver(net::Packet::make_udp({kClientIp, 5353},
                                           {kAnsIp, net::kDnsPort},
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
  PerPacket per_packet(const std::function<Message(std::uint16_t)>& make) {
    send(64, make);
    // Stock the buffer pool with full-size buffers. Otherwise a small one
    // (a relayed reply's copy) can come back to an encode path and grow
    // there: the pool's cost, not the guard's.
    for (int i = 0; i < 256; ++i) {
      Bytes b;
      b.reserve(BufferPool::kDefaultReserve);
      BufferPool::local().release(std::move(b));
    }
    guard->reset_counts();
    send(64, make);
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
  // The TXT cookie's strings vector and string; stripped in place.
  EXPECT_EQ(counts.request, 2.0);
  // The relayed reply is copied before it is re-emitted.
  EXPECT_EQ(counts.ans_reply, 1.0);
}

TEST(AllocBudget, GuardForgedTxtDrop) {
  GuardBed bed(guard::Scheme::ModifiedDns);
  crypto::Cookie forged{};
  forged.fill(0x5a);
  const auto counts = bed.per_packet(
      [&](std::uint16_t id) { return with_txt_cookie(id, forged); });
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped, 128u);
  EXPECT_EQ(bed.guard->reply_pkts, 0u);
  EXPECT_EQ(counts.request, 2.0);  // decoding the TXT cookie
}

TEST(AllocBudget, GuardNsNameHit) {
  GuardBed bed(guard::Scheme::NsName);
  const auto label =
      bed.guard->cookie_engine().make_cookie_label(kClientIp, "com");
  ASSERT_TRUE(label.has_value());
  const DomainName qname = name(label->c_str());
  const auto counts = bed.per_packet([&](std::uint16_t id) {
    return Message::query(id, qname, RrType::A, false);
  });
  EXPECT_EQ(bed.guard->guard_stats().cookie_checks, 128u);
  EXPECT_EQ(bed.guard->reply_pkts, 64u);
  // parse_cookie_label's decoded hex bytes; the question is restored in
  // place.
  EXPECT_EQ(counts.request, 1.0);
}

TEST(AllocBudget, GuardNsNameMiss) {
  GuardBed bed(guard::Scheme::NsName);
  const auto counts = bed.per_packet([](std::uint16_t id) {
    return Message::query(id, name("www.foo.com"), RrType::A, false);
  });
  EXPECT_EQ(bed.guard->guard_stats().fabricated_referrals, 128u);
  // The referral built by response_to: its question and authority
  // vectors.
  EXPECT_EQ(counts.request, 2.0);
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
