// Shard-per-core guard: determinism (same seed + same shard count =>
// byte-identical run), counter equivalence across shard counts for every
// scheme, and per-shard divided caps under a million-source spoofed flood
// (DESIGN.md §13).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/attackers.h"
#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

namespace dnsguard {
namespace {

using attack::CookieGuessNode;
using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;
using workload::DriveMode;
using workload::LrsSimulatorNode;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kSubnetBase(10, 1, 1, 0);

struct Bed {
  sim::Simulator sim;
  server::AnsSimulatorNode ans{sim, "ans", {.address = kAnsIp}};
  std::unique_ptr<RemoteGuardNode> guard;
  std::vector<std::unique_ptr<LrsSimulatorNode>> drivers;
  std::vector<std::unique_ptr<attack::FloodNodeBase>> floods;

  void make_guard(
      Scheme scheme,
      const std::function<void(RemoteGuardNode::Config&)>& tweak = {}) {
    RemoteGuardNode::Config gc;
    gc.guard_address = Ipv4Address(10, 1, 1, 253);
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};
    gc.subnet_base = kSubnetBase;
    gc.scheme = scheme;
    // Generous limits: equivalence tests must not sit on a rate-limiter
    // edge, where a lane's per-burst service timing could legitimately
    // flip a marginal allow/deny.
    gc.rl1.per_address_rate = 1e7;
    gc.rl1.per_address_burst = 1e6;
    gc.rl2.per_host_rate = 1e7;
    gc.rl2.per_host_burst = 1e6;
    if (tweak) tweak(gc);
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, &ans);
    guard->install();
  }

  LrsSimulatorNode* add_driver(DriveMode mode, int conc, Ipv4Address addr,
                               std::uint64_t seed = 7) {
    LrsSimulatorNode::Config dc;
    dc.address = addr;
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = mode;
    dc.concurrency = conc;
    dc.seed = seed;
    drivers.push_back(std::make_unique<LrsSimulatorNode>(
        sim, "driver-" + addr.to_string(), dc));
    sim.add_host_route(addr, drivers.back().get());
    return drivers.back().get();
  }

  void add_flood(double rate, std::uint64_t seed,
                 attack::SpoofedFloodNode::SpoofConfig spoof = {}) {
    floods.push_back(std::make_unique<attack::SpoofedFloodNode>(
        sim, "flood",
        attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 9),
                                      .target = {kAnsIp, net::kDnsPort},
                                      .rate = rate,
                                      .seed = seed},
        spoof));
  }

  /// Forged cookies in `mode`'s encoding, spoofed from one victim.
  void add_guesser(double rate, std::uint64_t seed,
                   CookieGuessNode::Mode mode) {
    floods.push_back(std::make_unique<CookieGuessNode>(
        sim, "guesser",
        attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 8),
                                      .target = {kAnsIp, net::kDnsPort},
                                      .rate = rate,
                                      .seed = seed},
        CookieGuessNode::GuessConfig{.mode = mode,
                                     .victim = Ipv4Address(10, 99, 0, 1),
                                     .subnet_base = kSubnetBase,
                                     .r_y = 250,
                                     .zone = dns::DomainName{}}));
  }
};

using CounterMap = std::map<std::string, std::uint64_t>;

/// Every registered counter, optionally dropping names the caller knows
/// are legitimately partition-dependent (per-shard table metrics).
CounterMap counter_values(
    const Bed& bed,
    const std::function<bool(const std::string&)>& skip = {}) {
  CounterMap out;
  for (const std::string& name : bed.sim.metrics().counter_names()) {
    if (skip && skip(name)) continue;
    const obs::Counter* c = bed.sim.metrics().find_counter(name);
    if (c != nullptr) out[name] = c->value();
  }
  return out;
}

/// Table metrics are bound per shard ("guard.shard<k>.rl1.*"), so their
/// names and per-name values split across shards. One shard serves its
/// lane one packet per service event and N shards serve theirs in bursts
/// of up to 32, so the scheduler's own event tally differs too. Every
/// other counter must be partition-invariant.
bool is_partition_dependent(const std::string& name) {
  return name == "sim.events_dispatched" || name.rfind("guard.shard", 0) == 0;
}

/// One scheme's traffic for the shard checks: a legitimate closed-loop
/// driver, a spoofed flood over a /16 so every shard sees attack traffic
/// (cookie-less, or with random TXT cookies), and cookie guessers aimed
/// at the scheme's own verifiers. `free_guard` zeroes the guard's cost
/// model (see run_workload).
struct Mix {
  std::string label;
  Scheme scheme;
  DriveMode mode;
  bool txt_flood;
  std::vector<CookieGuessNode::Mode> guesses;
  bool free_guard = false;
};

const Mix kModifiedDns{"modified_dns", Scheme::ModifiedDns,
                       DriveMode::ModifiedHit, true, {}};

std::vector<Mix> every_scheme() {
  using Mode = CookieGuessNode::Mode;
  return {
      kModifiedDns,
      {"ns_name_hit", Scheme::NsName, DriveMode::NsNameHit, false,
       {Mode::NsNameLabel}},
      // Four guard transits per request: with costs on, this closed loop
      // completes 1964 requests on 2 shards vs 1960 on one, because it
      // offers load at the rate its replies return and queueing differs
      // between one lane served a packet at a time and N lanes served in
      // bursts. Verdicts do not.
      {"ns_name_miss", Scheme::NsName, DriveMode::NsNameMiss, false,
       {Mode::NsNameLabel}, /*free_guard=*/true},
      {"fabricated_ns_ip", Scheme::FabricatedNsIp, DriveMode::FabricatedMiss,
       false, {Mode::NsNameLabel, Mode::SubnetAddress}},
      {"tcp_redirect", Scheme::TcpRedirect, DriveMode::TcpWithRedirect, false,
       {}},
  };
}

struct RunOutcome {
  CounterMap all_counters;        // every registered counter
  CounterMap invariant_counters;  // minus partition-dependent names
  std::uint64_t traffic_hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t spoofs_dropped = 0;
};

/// With `mix.free_guard` set, every packet leaves the guard at its arrival
/// instant at any shard count. Otherwise the guard charges
/// its default per-packet and per-cookie costs, so lanes build busy
/// clocks and drain multi-packet bursts.
RunOutcome run_workload(std::size_t num_shards, std::uint64_t seed,
                        const Mix& mix = kModifiedDns) {
  Bed bed;
  bed.make_guard(mix.scheme, [&](RemoteGuardNode::Config& c) {
    c.num_shards = num_shards;
    if (mix.free_guard) {
      c.costs = {.packet = {}, .cookie = {}, .transform = {}, .drop = {},
                 .proxy_segment = {}, .proxy_connection = {},
                 .proxy_table_per_conn = {}};
    }
  });
  auto* d = bed.add_driver(mix.mode, 8, Ipv4Address(10, 0, 1, 1), seed);
  bed.add_flood(20000, seed + 1,
                {.spoof_base = Ipv4Address(10, 200, 0, 0),
                 .spoof_range = 1u << 16,
                 .random_txt_cookie = mix.txt_flood});
  for (std::size_t i = 0; i < mix.guesses.size(); ++i) {
    bed.add_guesser(2000, seed + 2 + i, mix.guesses[i]);
  }
  std::uint64_t hash = 0;
  bed.sim.set_tap([&hash](SimTime t, const sim::Node*, const sim::Node*,
                          const net::Packet& p) {
    hash = hash * 0x9e3779b97f4a7c15ULL +
           (static_cast<std::uint64_t>(p.src_ip.value()) << 16) +
           p.payload.size() + static_cast<std::uint64_t>(t.ns & 0xffff);
  });
  d->start();
  for (auto& f : bed.floods) f->start();
  bed.sim.run_for(milliseconds(300));
  for (auto& f : bed.floods) f->stop();
  d->stop();
  bed.sim.run_for(milliseconds(50));
  return RunOutcome{counter_values(bed),
                    counter_values(bed, is_partition_dependent), hash,
                    d->driver_stats().completed,
                    bed.guard->guard_stats().spoofs_dropped};
}

void expect_counter_maps_equal(const CounterMap& a, const CounterMap& b,
                               const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [name, value] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << label << ": missing " << name;
    EXPECT_EQ(value, it->second) << label << ": " << name;
  }
}

TEST(ShardDeterminism, SameSeedSameShardCountIsByteIdentical) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    RunOutcome a = run_workload(n, 42);
    RunOutcome b = run_workload(n, 42);
    EXPECT_EQ(a.traffic_hash, b.traffic_hash) << n << " shards";
    EXPECT_EQ(a.completed, b.completed) << n << " shards";
    expect_counter_maps_equal(a.all_counters, b.all_counters,
                              std::to_string(n) + " shards rerun");
  }
}

TEST(ShardEquivalence, CounterTotalsInvariantAcrossShardCounts) {
  // Partitioning the tables must not change any externally observable
  // tally: same verdicts, same drops, same forwards for 1, 2, 8 shards,
  // on every scheme's mint, verify and forged-cookie paths. Every mix but
  // the NS-name miss loop runs with the guard's costs on, so lane burst
  // timing is covered too.
  for (const Mix& mix : every_scheme()) {
    RunOutcome one = run_workload(1, 42, mix);
    EXPECT_GT(one.completed, 100u) << mix.label;
    if (mix.txt_flood || !mix.guesses.empty()) {
      EXPECT_GT(one.spoofs_dropped, 100u) << mix.label;
    }
    for (std::size_t n : {std::size_t{2}, std::size_t{8}}) {
      RunOutcome many = run_workload(n, 42, mix);
      const std::string label =
          mix.label + ": 1 vs " + std::to_string(n) + " shards";
      EXPECT_EQ(one.completed, many.completed) << label;
      EXPECT_EQ(one.spoofs_dropped, many.spoofs_dropped) << label;
      expect_counter_maps_equal(one.invariant_counters,
                                many.invariant_counters, label);
    }
  }
}

// --- per-shard divided caps under a spoofed flood ---------------------------

std::int64_t gauge_high_water(const Bed& bed, const std::string& name) {
  const obs::Gauge* g = bed.sim.metrics().find_gauge(name);
  EXPECT_NE(g, nullptr) << "missing gauge " << name;
  return g != nullptr ? g->max() : std::numeric_limits<std::int64_t>::max();
}

std::uint64_t counter_value(const Bed& bed, const std::string& name) {
  const obs::Counter* c = bed.sim.metrics().find_counter(name);
  EXPECT_NE(c, nullptr) << "missing counter " << name;
  return c != nullptr ? c->value() : 0;
}

TEST(StateExhaustion, MillionSourceFloodRespectsPerShardDividedCaps) {
  constexpr std::size_t kShards = 8;
  constexpr std::int64_t kCap = 512;
  // ceil(512 / 8): each shard owns an eighth of every table budget.
  constexpr std::int64_t kPerShardCap = (kCap + kShards - 1) / kShards;

  Bed bed;
  bed.make_guard(Scheme::ModifiedDns, [&](RemoteGuardNode::Config& c) {
    c.num_shards = kShards;
    c.rl1.heavy_hitter_threshold = 1;  // every source lands an RL1 bucket
    c.rl1.max_buckets = kCap;
    c.rl2.max_hosts = kCap;
    c.pending_table_capacity = kCap;
    c.nat_table_capacity = kCap;
    c.conn_bucket_capacity = kCap;
  });
  auto* d =
      bed.add_driver(DriveMode::ModifiedHit, 4, Ipv4Address(10, 0, 1, 1), 7);
  // Cookie-less spoofed queries from 2^20 distinct sources: each one
  // takes the mint path and presses on its shard's RL1 bucket table.
  bed.add_flood(1e5, 99,
                {.spoof_base = Ipv4Address(10, 200, 0, 0),
                 .spoof_range = 1u << 20,
                 .random_txt_cookie = false});
  d->start();
  bed.floods[0]->start();
  bed.sim.run_for(seconds(1));
  bed.floods[0]->stop();
  d->stop();
  bed.sim.run_for(milliseconds(100));

  std::uint64_t rl1_evictions = 0;
  std::int64_t rl1_high_water_total = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    const std::string p = "guard.shard" + std::to_string(k);
    for (const std::string& g :
         {p + ".rl1.table.size", p + ".rl2.table.size", p + ".pending.size",
          p + ".nat.size", p + ".conn_buckets.size"}) {
      EXPECT_LE(gauge_high_water(bed, g), kPerShardCap) << g;
    }
    rl1_evictions += counter_value(bed, p + ".rl1.table.evicted_capacity");
    rl1_high_water_total += gauge_high_water(bed, p + ".rl1.table.size");
  }
  // The flood really pressed on every shard's cap: ~100k distinct
  // sources hit 8 tables of 64 entries, recycling slots constantly, and
  // each shard filled to its own cap (no shard got the whole budget).
  EXPECT_GT(rl1_evictions, 10000u);
  EXPECT_EQ(rl1_high_water_total, kShards * kPerShardCap);
  // Legitimate clients are still served through the bounded shards.
  EXPECT_GT(d->driver_stats().completed, 100u);
}

// --- profiler spans on a sharded guard --------------------------------------

TEST(ShardProfile, FourLaneGuardSpansNestOnOneStack) {
  // Each shard lane serves its burst inside one simulator event and the
  // simulator is single-threaded, so the spans of all four lanes nest
  // LIFO on the profiler's one stack: none mismatches or overflows, and
  // every guard sub-stage parents under an enclosing guard span, never
  // under the dispatch loop or the root.
  using obs::prof::profiler;
  using obs::prof::Stage;
  Bed bed;
  bed.make_guard(Scheme::NsName, [](auto& c) { c.num_shards = 4; });
  for (std::uint8_t i = 1; i <= 8; ++i) {
    bed.add_driver(DriveMode::NsNameMiss, 8, Ipv4Address(10, 0, 1, i), i);
  }
  bed.add_flood(50000, 43,
                {.spoof_base = Ipv4Address(10, 200, 0, 0),
                 .spoof_range = 1u << 16,
                 .random_txt_cookie = false});
  profiler.enable();
  profiler.reset();
  for (auto& d : bed.drivers) d->start();
  bed.floods[0]->start();
  bed.sim.run_for(milliseconds(200));
  const obs::prof::Report r = profiler.report();
  profiler.reset();
  profiler.disable();

  EXPECT_EQ(r.mismatched_spans, 0u);
  EXPECT_EQ(r.overflow_spans, 0u);
  const Stage nested[] = {Stage::kGuardDecode, Stage::kGuardMint,
                          Stage::kGuardVerify, Stage::kGuardRl1,
                          Stage::kGuardRl2,    Stage::kCookieHash};
  std::map<Stage, std::uint64_t> spans;  // per stage, over every parent
  for (const obs::prof::EdgeReport& e : r.edges) {
    spans[e.stage] += e.count;
    if (e.stage == Stage::kGuardService) {
      EXPECT_EQ(e.parent, Stage::kSimDispatch);
    }
    for (Stage s : nested) {
      if (e.stage != s) continue;
      EXPECT_NE(e.parent, Stage::kRoot) << obs::prof::stage_name(s);
      EXPECT_NE(e.parent, Stage::kSimDispatch) << obs::prof::stage_name(s);
    }
  }
  EXPECT_GT(spans[Stage::kGuardService], 0u);
  for (Stage s : nested) {
    EXPECT_GT(spans[s], 0u) << obs::prof::stage_name(s);
  }
}

}  // namespace
}  // namespace dnsguard
