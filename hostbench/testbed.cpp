#include "testbed.h"

#include <string>

#include "alloc_counter.h"

namespace hostbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A reply to a legitimate client is valid when it decodes as a NOERROR
/// response whose A answers are the ANS's fixed answer or a fabricated
/// cookie address inside the guard's subnet.
bool valid_reply(BytesView payload) {
  auto m = dns::Message::decode(payload);
  if (!m || !m->header.qr || m->header.rcode != dns::Rcode::NoError) {
    return false;
  }
  for (const auto& rr : m->answers) {
    if (rr.type != dns::RrType::A) continue;
    const net::Ipv4Address a = std::get<dns::ARdata>(rr.rdata).address;
    if (!(a == kAnswerIp) && !a.in_subnet(kSubnetBase, 24)) return false;
  }
  return true;
}

void check_reply(const net::Packet& p, Tally& tally) {
  UncountedScope uncounted;
  BytesView payload(p.payload);
  if (p.is_tcp()) {
    if (payload.empty()) return;  // handshake, ACK or FIN
    // The proxy relays each answer as one length-framed segment.
    const std::size_t framed =
        payload.size() >= 2
            ? (static_cast<std::size_t>(payload[0]) << 8 | payload[1])
            : 0;
    ++tally.replies_checked;
    if (framed + 2 != payload.size() || !valid_reply(payload.subspan(2))) {
      ++tally.bad_replies;
    }
    return;
  }
  ++tally.replies_checked;
  if (!valid_reply(payload)) ++tally.bad_replies;
}

class CheckedDriver final : public workload::LrsSimulatorNode {
 public:
  CheckedDriver(sim::Simulator& sim, std::string name, Config config,
                Tally& tally)
      : LrsSimulatorNode(sim, std::move(name), std::move(config)),
        tally_(tally) {}

 protected:
  SimDuration process(const net::Packet& packet) override {
    check_reply(packet, tally_);
    return LrsSimulatorNode::process(packet);
  }

 private:
  Tally& tally_;
};

class CheckedPopulation final : public workload::ClientPopulationNode {
 public:
  CheckedPopulation(sim::Simulator& sim, std::string name, Config config,
                    Tally& tally)
      : ClientPopulationNode(sim, std::move(name), std::move(config)),
        tally_(tally) {}

 protected:
  SimDuration process(const net::Packet& packet) override {
    check_reply(packet, tally_);
    return ClientPopulationNode::process(packet);
  }

 private:
  Tally& tally_;
};

/// Counts queries from the spoofed source range that got past the guard.
class CountingAns final : public server::AnsSimulatorNode {
 public:
  CountingAns(sim::Simulator& sim, Tally& tally)
      : AnsSimulatorNode(sim, "ans-sim",
                         server::AnsSimulatorNode::Config{.address = kAnsIp}),
        tally_(tally) {}

 protected:
  SimDuration process(const net::Packet& packet) override {
    if (is_spoofed(packet.src_ip)) ++tally_.spoofed_at_ans;
    return AnsSimulatorNode::process(packet);
  }

 private:
  Tally& tally_;
};

/// On top of bench::Testbed's non-throttling limiter settings: a
/// million-client population needs more verified-host slots than the 2^16
/// default (docs/WORKLOADS.md), and the short idle timeout keeps the table
/// at a steady size however long the window runs.
void size_rl2(guard::RemoteGuardNode::Config& gc) {
  gc.rl2.max_hosts = 1 << 20;
  gc.rl2.host_idle_timeout = seconds(2);
}

constexpr net::Ipv4Address driver_address(int k) {
  return net::Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(1 + k));
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "legit_steady") return Workload::kLegitSteady;
  if (name == "spoof_flood") return Workload::kSpoofFlood;
  if (name == "tcp_churn") return Workload::kTcpChurn;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kLegitSteady: return "legit_steady";
    case Workload::kSpoofFlood: return "spoof_flood";
    case Workload::kTcpChurn: return "tcp_churn";
  }
  return "?";
}

Testbed::Testbed(Workload w, std::uint64_t seed) : seed_(seed) {
  sim_ans = std::make_unique<CountingAns>(sim, tally);
  using guard::Scheme;
  using workload::DriveMode;
  switch (w) {
    case Workload::kLegitSteady: {
      make_guard(Scheme::ModifiedDns, 0.0, [](auto& gc) {
        size_rl2(gc);
        gc.per_source_scheme[driver_address(0)] = Scheme::NsName;
        gc.per_source_scheme[driver_address(1)] = Scheme::NsName;
        gc.per_source_scheme[driver_address(2)] = Scheme::FabricatedNsIp;
      });
      add_driver(DriveMode::NsNameHit, driver_address(0), 48,
                 milliseconds(10));
      add_driver(DriveMode::NsNameMiss, driver_address(1), 24,
                 milliseconds(10));
      add_driver(DriveMode::FabricatedHit, driver_address(2), 48,
                 milliseconds(10));
      add_population(1000000, 60000.0);
      warmup_ = seconds(1);
      sim_per_wall_second_ = 0.9;
      break;
    }
    case Workload::kSpoofFlood: {
      make_guard(Scheme::ModifiedDns, 0.0, [](auto& gc) {
        size_rl2(gc);
        gc.num_shards = 4;
      });
      add_driver(DriveMode::ModifiedHit, driver_address(0), 256,
                 milliseconds(10));
      add_population(100000, 10000.0);
      add_flood(100000.0, /*random_txt_cookie=*/true);
      add_flood(50000.0, /*random_txt_cookie=*/false);
      warmup_ = seconds(1);
      sim_per_wall_second_ = 0.7;
      break;
    }
    case Workload::kTcpChurn: {
      make_guard(Scheme::TcpRedirect, 0.0, size_rl2);
      for (int k = 0; k < 4; ++k) {
        add_driver(DriveMode::TcpWithRedirect, driver_address(k), 250,
                   milliseconds(200));
      }
      warmup_ = milliseconds(500);
      sim_per_wall_second_ = 1.8;
      break;
    }
  }
}

void Testbed::add_driver(workload::DriveMode mode, net::Ipv4Address address,
                         int concurrency, SimDuration timeout) {
  workload::LrsSimulatorNode::Config dc;
  dc.address = address;
  dc.target = {kAnsIp, net::kDnsPort};
  dc.mode = mode;
  dc.concurrency = concurrency;
  dc.timeout = timeout;
  const std::uint64_t s = splitmix64(seed_ ^ ++streams_);
  dc.seed = s;
  drivers.push_back(std::make_unique<CheckedDriver>(
      sim, "driver-" + address.to_string(), dc, tally));
  sim.add_host_route(address, drivers.back().get());
  // The driver's own protocol draws nothing at random, so the seed moves
  // each driver's start instant: closed loops then interleave differently.
  driver_offsets_.push_back(microseconds(static_cast<std::int64_t>(s % 500)));
}

void Testbed::add_population(std::uint64_t clients, double base_rate) {
  workload::ClientPopulationNode::Config pc;
  pc.population.num_clients = clients;
  pc.population.base_rate = base_rate;
  // Short resolver-cache TTL: the cache-hit share settles during warmup
  // instead of drifting for a minute of simulated time.
  pc.population.cache_ttl = seconds(1);
  pc.population.seed = splitmix64(seed_ ^ ++streams_);
  pc.target = {kAnsIp, net::kDnsPort};
  population = std::make_unique<CheckedPopulation>(sim, "population", pc,
                                                   tally);
}

void Testbed::add_flood(double rate, bool random_txt_cookie) {
  attack::FloodNodeBase::Config fc{
      .own_address = net::Ipv4Address(10, 9, 9,
                                      static_cast<std::uint8_t>(
                                          9 + attackers.size())),
      .target = {kAnsIp, net::kDnsPort},
      .rate = rate,
      .seed = splitmix64(seed_ ^ ++streams_),
      .qname_base = "www.foo.com."};
  attackers.push_back(std::make_unique<attack::SpoofedFloodNode>(
      sim, "flood-" + std::to_string(attackers.size()), fc,
      attack::SpoofedFloodNode::SpoofConfig{
          .spoof_base = kSpoofBase,
          .spoof_range = kSpoofRange,
          .random_txt_cookie = random_txt_cookie}));
}

void Testbed::start() {
  for (std::size_t k = 0; k < drivers.size(); ++k) {
    workload::LrsSimulatorNode* d = drivers[k].get();
    sim.schedule_in(driver_offsets_[k], [d] { d->start(); });
  }
  if (population) population->start();
  for (auto& f : attackers) f->start();
}

Testbed::LegitCounts Testbed::legit_counts() const {
  LegitCounts c;
  for (const auto& d : drivers) {
    c.completed += d->driver_stats().completed.value();
    c.timeouts += d->driver_stats().timeouts.value();
    c.unexpected += d->driver_stats().unexpected.value();
  }
  if (population) {
    c.completed += population->population_stats().completed.value();
    c.unexpected += population->population_stats().unexpected.value();
  }
  return c;
}

std::uint64_t Testbed::spoofed_sent() const {
  std::uint64_t n = 0;
  for (const auto& f : attackers) n += f->flood_stats().sent;
  return n;
}

Testbed::Mark Testbed::mark() const {
  return {legit_counts(), tally, snapshot_of(sim.metrics())};
}

std::vector<std::string> Testbed::check_since(const Mark& m) const {
  std::vector<std::string> failures;
  const Snapshot now = snapshot_of(sim.metrics());
  if (tally.replies_checked == m.tally.replies_checked) {
    failures.emplace_back("no legitimate reply was checked");
  }
  if (tally.bad_replies != m.tally.bad_replies) {
    failures.emplace_back("legitimate replies failed validation");
  }
  if (legit_counts().unexpected != m.legit.unexpected) {
    failures.emplace_back("a generator counted an unexpected reply");
  }
  if (tally.spoofed_at_ans != m.tally.spoofed_at_ans) {
    failures.emplace_back("spoofed queries reached the ANS");
  }
  if (delta(m.metrics, now, "guard.rl1_throttled") != 0 ||
      delta(m.metrics, now, "guard.rl2_throttled") != 0) {
    failures.emplace_back("a rate limiter throttled");
  }
  if (delta(m.metrics, now, "sim.net.packets_dropped_queue_full") != 0) {
    failures.emplace_back("a node's receive queue overflowed");
  }
  return failures;
}

}  // namespace hostbench
