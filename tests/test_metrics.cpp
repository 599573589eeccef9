// Observability layer: metric cells, the registry, the drop-reason
// taxonomy and the per-node trace ring — unit behaviour plus the
// end-to-end wiring through a spoofed-flood guard scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "attack/attackers.h"
#include "guard/remote_guard.h"
#include "obs/drop_reason.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

namespace dnsguard {
namespace {

using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;
using obs::Counter;
using obs::DropCounters;
using obs::DropReason;
using obs::Gauge;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::TraceRing;
using server::AnsSimulatorNode;
using workload::DriveMode;
using workload::LrsSimulatorNode;

// --- cells -------------------------------------------------------------------

TEST(CounterCell, BehavesLikeUint64Tally) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c++;
  c += 5;
  c.inc(3);
  EXPECT_EQ(c.value(), 10u);
  std::uint64_t as_int = c;  // implicit conversion, like a plain tally
  EXPECT_EQ(as_int, 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterCell, StructResetZeroesAttachedCellInPlace) {
  // `stats_ = Stats{}` resets a whole struct (CookieResponseLimiter::reset
  // does); the registry holds the field's address, so the value must reset
  // without the cell moving.
  struct Stats {
    Counter hits;
  };
  Stats stats;
  MetricsRegistry registry;
  registry.attach_counter("t.hits", stats.hits);
  stats.hits += 7;
  EXPECT_EQ(registry.find_counter("t.hits")->value(), 7u);
  stats = Stats{};
  EXPECT_EQ(registry.find_counter("t.hits")->value(), 0u);
  stats.hits += 3;
  EXPECT_EQ(registry.find_counter("t.hits")->value(), 3u);
}

TEST(GaugeCell, TracksHighWaterMark) {
  Gauge g;
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 12);
  g.add(-3);
  EXPECT_EQ(g.value(), 0);
  g.reset();  // clears the high-water mark, keeps the level
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

TEST(GaugeCell, ResetKeepsNonZeroLevelAsNewMark) {
  Gauge g;
  g.set(12);
  g.set(5);
  ASSERT_EQ(g.max(), 12);
  g.reset();
  // The mark collapses to the current level, not to zero — a live queue
  // of depth 5 is still depth 5 after the measurement window restarts.
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.max(), 5);
  g.set(9);
  EXPECT_EQ(g.max(), 9);
}

// --- registry ----------------------------------------------------------------

TEST(Registry, AttachCollisionGetsSuffix) {
  MetricsRegistry r;
  Counter first, second;
  EXPECT_EQ(r.attach_counter("g.rx", first), "g.rx");
  std::string renamed = r.attach_counter("g.rx", second);
  EXPECT_NE(renamed, "g.rx");
  EXPECT_EQ(renamed.rfind("g.rx", 0), 0u);  // keeps the requested prefix
  first += 1;
  second += 10;
  EXPECT_EQ(r.find_counter("g.rx")->value(), 1u);
  EXPECT_EQ(r.find_counter(renamed)->value(), 10u);
}

TEST(Registry, FindRejectsWrongKind) {
  MetricsRegistry r;
  Counter a;
  Gauge b;
  r.attach_counter("a", a);
  r.attach_gauge("b", b);
  EXPECT_EQ(r.find_gauge("a"), nullptr);
  EXPECT_EQ(r.find_counter("b"), nullptr);
  EXPECT_EQ(r.find_counter("missing"), nullptr);
}

TEST(Registry, SnapshotLayout) {
  MetricsRegistry r;
  Counter c;
  Gauge g;
  r.attach_counter("c", c);
  r.attach_gauge("g", g);
  c += 4;
  g.set(7);
  MetricsRegistry::Snapshot snap = r.snapshot();
  auto value_of = [&](const std::string& name) -> double {
    for (const auto& [k, v] : snap) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "missing snapshot key " << name;
    return -1;
  };
  EXPECT_EQ(value_of("c"), 4.0);
  EXPECT_EQ(value_of("g"), 7.0);
  EXPECT_EQ(value_of("g.max"), 7.0);
  EXPECT_EQ(snap.size(), 3u);  // a counter is one row, a gauge two
}

TEST(Registry, ResetValuesZeroesEverything) {
  MetricsRegistry r;
  Counter attached, b;
  Gauge g;
  r.attach_counter("a", attached);
  r.attach_counter("b", b);
  r.attach_gauge("g", g);
  attached += 9;
  b += 2;
  g.set(5);
  g.set(2);
  r.reset_values();
  EXPECT_EQ(attached.value(), 0u);
  EXPECT_EQ(r.find_counter("b")->value(), 0u);
  EXPECT_EQ(r.find_gauge("g")->max(), 2);  // the mark collapses to the level
}

TEST(Registry, ToJsonContainsNamesAndValues) {
  MetricsRegistry r;
  Counter drops;
  r.attach_counter("guard.spoofs_dropped", drops);
  drops += 12;
  std::string json = r.to_json();
  EXPECT_NE(json.find("\"guard.spoofs_dropped\""), std::string::npos);
  EXPECT_NE(json.find("12"), std::string::npos);
}

// --- drop reasons ------------------------------------------------------------

TEST(DropReasons, CountsAndTotals) {
  DropCounters d;
  d.count(DropReason::kBadCookie, 3);
  d.count(DropReason::kRateLimited1);
  EXPECT_EQ(d.value(DropReason::kBadCookie), 3u);
  EXPECT_EQ(d.value(DropReason::kStaleKey), 0u);
  EXPECT_EQ(d.total(), 4u);
  d.count(DropReason::kNone);  // filler, never part of the total
  EXPECT_EQ(d.total(), 4u);
  MetricsRegistry r;
  d.bind(r, "guard");
  r.reset_values();  // the window reset zeroes every bound reason
  EXPECT_EQ(d.total(), 0u);
}

TEST(DropReasons, BindExportsFullTaxonomy) {
  DropCounters d;
  MetricsRegistry r;
  d.bind(r, "guard");
  d.count(DropReason::kBadCookie, 2);
  const Counter* c = r.find_counter("guard.drop.bad_cookie");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 2u);
  // Every real reason has a cell; kNone does not.
  for (std::size_t i = 1; i < obs::kDropReasonCount; ++i) {
    auto name = std::string("guard.drop.") +
                std::string(obs::drop_reason_name(
                    static_cast<DropReason>(i)));
    EXPECT_NE(r.find_counter(name), nullptr) << name;
  }
  EXPECT_EQ(r.find_counter("guard.drop.none"), nullptr);
}

// --- trace ring --------------------------------------------------------------

TEST(Trace, RingWrapsKeepingNewestOldestFirst) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint16_t i = 0; i < 20; ++i) {
    ring.record(SimTime{i}, TraceEvent::kRx, /*src=*/i, /*dst=*/99, i);
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.recorded(), 20u);
  std::vector<obs::TraceEntry> entries = ring.entries();
  ASSERT_EQ(entries.size(), 8u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].info, 12 + i);  // events 12..19 retained, in order
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
}

TEST(Trace, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(6);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(Trace, DumpIsHumanReadable) {
  TraceRing ring(4);
  ring.record(SimTime{1500}, TraceEvent::kDrop,
              Ipv4Address(10, 9, 9, 9).value(),
              Ipv4Address(10, 1, 1, 254).value(), 7,
              DropReason::kBadCookie);
  std::string dump = ring.dump("guard");
  EXPECT_NE(dump.find("guard"), std::string::npos);
  EXPECT_NE(dump.find("drop"), std::string::npos);
  EXPECT_NE(dump.find("bad_cookie"), std::string::npos);
}

// --- end to end: spoofed flood through the guard -----------------------------

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kGuardIp(10, 1, 1, 253);
constexpr Ipv4Address kSubnetBase(10, 1, 1, 0);
constexpr Ipv4Address kLrsIp(10, 0, 1, 1);

struct GuardBed {
  sim::Simulator sim;
  std::unique_ptr<AnsSimulatorNode> ans;
  std::unique_ptr<RemoteGuardNode> guard;
  std::unique_ptr<LrsSimulatorNode> driver;

  explicit GuardBed(Scheme scheme, DriveMode mode) {
    ans = std::make_unique<AnsSimulatorNode>(
        sim, "ans", AnsSimulatorNode::Config{.address = kAnsIp});
    RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};
    gc.subnet_base = kSubnetBase;
    gc.r_y = 250;
    gc.scheme = scheme;
    gc.rl1.per_address_rate = 1e6;
    gc.rl1.per_address_burst = 1e5;
    gc.rl2.per_host_rate = 1e6;
    gc.rl2.per_host_burst = 1e5;
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, ans.get());
    guard->install(/*subnet_prefix_len=*/24);

    LrsSimulatorNode::Config dc;
    dc.address = kLrsIp;
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = mode;
    dc.concurrency = 1;
    driver = std::make_unique<LrsSimulatorNode>(sim, "driver", dc);
    sim.add_host_route(kLrsIp, driver.get());
    sim.set_default_latency(microseconds(200));
  }

  void run(SimDuration d) {
    driver->start();
    sim.run_for(d);
    driver->stop();
  }
};

TEST(MetricsScenario, SpoofedGuessesChargedToBadCookie) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameMiss);
  attack::CookieGuessNode guesser(
      bed.sim, "guesser",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 8),
                                    .target = {kAnsIp, net::kDnsPort},
                                    .rate = 10000},
      attack::CookieGuessNode::GuessConfig{
          .mode = attack::CookieGuessNode::Mode::NsNameLabel,
          .victim = Ipv4Address(10, 99, 0, 1),
          .zone = dns::DomainName{}});
  guesser.start();
  bed.run(milliseconds(100));
  guesser.stop();

  // A guessed prefix carries a random generation bit, but before the
  // first key rotation there is no previous generation at all: every
  // guess — whatever its bit — is a forgery and must be charged to
  // bad_cookie. (Charging the previous-bit half to stale_key was a
  // misclassification: stale_key implies a once-valid cookie.)
  const MetricsRegistry& reg = bed.sim.metrics();
  const Counter* bad = reg.find_counter("guard.drop.bad_cookie");
  const Counter* stale = reg.find_counter("guard.drop.stale_key");
  ASSERT_NE(bad, nullptr) << reg.to_json();
  ASSERT_NE(stale, nullptr);
  EXPECT_GT(bad->value(), 900u) << bed.guard->trace_ring().dump("guard");
  EXPECT_EQ(stale->value(), 0u);
  EXPECT_EQ(bad->value(),
            bed.guard->drop_counters().value(DropReason::kBadCookie));
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped.value(),
            bad->value() + stale->value());
  // Per-scheme attribution: the drops happened under the NS-name scheme,
  // while the legitimate driver's dances verified under it.
  EXPECT_GT(bed.guard->scheme_counters(Scheme::NsName).dropped.value(), 900u);
  EXPECT_GT(bed.guard->scheme_counters(Scheme::NsName).verified.value(), 10u);

  // The guard's trace ring retains drop events with the reason attached.
  std::vector<obs::TraceEntry> entries = bed.guard->trace_ring().entries();
  EXPECT_TRUE(std::any_of(entries.begin(), entries.end(), [](const auto& e) {
    return e.event == TraceEvent::kDrop &&
           e.reason == DropReason::kBadCookie;
  })) << bed.guard->trace_ring().dump("guard");
}

TEST(MetricsScenario, EverySubsystemRegistersMetrics) {
  GuardBed bed(Scheme::NsName, DriveMode::NsNameMiss);
  bed.run(milliseconds(20));
  const MetricsRegistry& reg = bed.sim.metrics();
  // One representative name per subsystem proves the wiring end to end.
  for (const char* name : {
           "sim.events_dispatched",         // simulator scheduler
           "sim.net.packets_delivered",     // simulated network
           "guard.requests_seen",           // remote guard
           "guard.scheme.ns_name.minted",   // per-scheme attribution
           "guard.drop.bad_cookie",         // drop taxonomy
           "guard.shard0.rl1.allowed",      // rate limiters
           "guard.tcp.syns_received",       // kernel TCP proxy
           "server.ans_sim.udp_queries",    // protected server
       }) {
    EXPECT_NE(reg.find_counter(name), nullptr) << name;
  }
  EXPECT_NE(reg.find_gauge("sim.queue_depth"), nullptr);
  // And the registry view agrees with the subsystem's own stats.
  EXPECT_EQ(reg.find_counter("guard.requests_seen")->value(),
            bed.guard->guard_stats().requests_seen.value());
  EXPECT_GT(reg.find_counter("sim.events_dispatched")->value(), 0u);
}

TEST(MetricsScenario, KeyRotationCountsPreviousGenerationVerifies) {
  // Hit-mode LRS caches the fabricated referral, so after a rotation it
  // keeps presenting the pre-rotation cookie label — which must verify
  // under the previous key and be booked as such (§III.E).
  GuardBed bed(Scheme::NsName, DriveMode::NsNameHit);
  bed.driver->start();
  bed.sim.run_for(milliseconds(50));
  EXPECT_GT(bed.guard->guard_stats().verified_curr_gen.value(), 10u);
  EXPECT_EQ(bed.guard->guard_stats().verified_prev_gen.value(), 0u);

  // Rotate mid-run: the still-running workers keep presenting their
  // cached pre-rotation cookie labels.
  bed.guard->cookie_engine().rotate(0xfeedf00d);
  bed.sim.run_for(milliseconds(50));
  bed.driver->stop();
  EXPECT_GT(bed.guard->guard_stats().verified_prev_gen.value(), 10u);
  EXPECT_EQ(bed.sim.metrics().find_counter("guard.verified_prev_gen")->value(),
            bed.guard->guard_stats().verified_prev_gen.value());
  // No legitimate request was dropped by the rotation.
  EXPECT_EQ(bed.guard->guard_stats().spoofs_dropped.value(), 0u);
  EXPECT_EQ(bed.driver->driver_stats().timeouts, 0u);
}

TEST(CookieGeneration, EngineVerifiesAcrossOneRotationOnly) {
  guard::CookieEngine engine(0x1111);
  const Ipv4Address requester(10, 0, 1, 1);
  crypto::Cookie cookie = engine.mint(requester);

  crypto::VerifyResult vr = engine.verify_ex(requester, cookie);
  EXPECT_TRUE(vr.ok);
  EXPECT_FALSE(vr.used_previous);

  engine.rotate(0x2222);
  vr = engine.verify_ex(requester, cookie);
  EXPECT_TRUE(vr.ok);
  EXPECT_TRUE(vr.used_previous);

  engine.rotate(0x3333);
  vr = engine.verify_ex(requester, cookie);
  EXPECT_FALSE(vr.ok);  // two rotations old: gone for good
}

}  // namespace
}  // namespace dnsguard
