// LrsSimulatorNode (the paper's LRS simulator) behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"
#include "workload/metrics.h"

namespace dnsguard::workload {
namespace {

using net::Ipv4Address;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kDriverIp(10, 0, 1, 1);

struct Bed {
  sim::Simulator sim;
  server::AnsSimulatorNode ans{sim, "ans", {.address = kAnsIp}};
  std::unique_ptr<guard::RemoteGuardNode> guard;
  std::unique_ptr<LrsSimulatorNode> driver;

  void with_guard(guard::Scheme scheme) {
    guard::RemoteGuardNode::Config gc;
    gc.guard_address = Ipv4Address(10, 1, 1, 253);
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};
    gc.subnet_base = Ipv4Address(10, 1, 1, 0);
    gc.scheme = scheme;
    gc.rl1.per_address_rate = 1e7;
    gc.rl1.per_address_burst = 1e6;
    gc.rl2.per_host_rate = 1e7;
    gc.rl2.per_host_burst = 1e6;
    gc.proxy_conn_rate = 1e7;
    gc.proxy_conn_burst = 1e6;
    guard = std::make_unique<guard::RemoteGuardNode>(sim, "guard", gc, &ans);
    guard->install();
  }
  void without_guard() { sim.add_host_route(kAnsIp, &ans); }

  LrsSimulatorNode* make_driver(LrsSimulatorNode::Config cfg) {
    cfg.address = kDriverIp;
    cfg.target = {kAnsIp, net::kDnsPort};
    driver = std::make_unique<LrsSimulatorNode>(sim, "driver", cfg);
    sim.add_host_route(kDriverIp, driver.get());
    return driver.get();
  }
};

TEST(Driver, PlainUdpClosedLoopThroughputScalesWithConcurrency) {
  double tput1 = 0, tput8 = 0;
  for (int conc : {1, 8}) {
    Bed bed;
    bed.without_guard();
    auto* d = bed.make_driver({.mode = DriveMode::PlainUdp,
                               .concurrency = conc});
    d->start();
    bed.sim.run_for(seconds(1));
    d->stop();
    double tput = static_cast<double>(d->driver_stats().completed);
    (conc == 1 ? tput1 : tput8) = tput;
  }
  // 1 worker is latency-bound (~1/0.41ms); 8 workers ~8x until service
  // limits kick in.
  EXPECT_GT(tput8, tput1 * 4);
}

TEST(Driver, ThinkTimePacesLoad) {
  Bed bed;
  bed.without_guard();
  auto* d = bed.make_driver({.mode = DriveMode::PlainUdp,
                             .concurrency = 10,
                             .think_time = milliseconds(9)});
  d->start();
  bed.sim.run_for(seconds(2));
  d->stop();
  // 10 workers / (0.4ms latency + 9.0ms think + 0.1ms stagger amortized)
  // ~ 1060/s.
  double rate = static_cast<double>(d->driver_stats().completed) / 2.0;
  EXPECT_GT(rate, 900.0);
  EXPECT_LT(rate, 1200.0);
}

TEST(Driver, TimeoutCountedWhenServerDead) {
  Bed bed;  // no route to the ANS at all
  auto* d = bed.make_driver({.mode = DriveMode::PlainUdp,
                             .concurrency = 2,
                             .timeout = milliseconds(10)});
  d->start();
  bed.sim.run_for(milliseconds(105));
  d->stop();
  EXPECT_EQ(d->driver_stats().completed, 0u);
  // ~2 workers x ~10 timeouts each.
  EXPECT_GE(d->driver_stats().timeouts, 16u);
}

TEST(Driver, LatenciesRecordedPerRequest) {
  Bed bed;
  bed.without_guard();
  auto* d = bed.make_driver({.mode = DriveMode::PlainUdp, .concurrency = 1});
  d->start();
  bed.sim.run_for(milliseconds(100));
  d->stop();
  ASSERT_GT(d->latencies().count(), 10u);
  // One exchange over a 0.4 ms RTT plus ANS service time.
  EXPECT_NEAR(d->latencies().mean(), 0.41, 0.1);
}

TEST(Driver, HitModesPrimeExactlyOnce) {
  Bed bed;
  bed.with_guard(guard::Scheme::ModifiedDns);
  auto* d = bed.make_driver({.mode = DriveMode::ModifiedHit,
                             .concurrency = 4});
  d->start();
  bed.sim.run_for(milliseconds(200));
  d->stop();
  // 4 workers each prime once (not counted), then loop 1-exchange hits.
  const auto& s = d->driver_stats();
  EXPECT_GT(s.completed, 100u);
  // Each of the 4 primings is 2 exchanges, plus up to 4 in flight at
  // stop; steady state is 1 exchange per request.
  EXPECT_LE(s.exchanges_sent, s.completed + 13);
  EXPECT_EQ(bed.guard->guard_stats().cookies_minted, 4u);
}

/// A server at the driver's target that answers a query by echoing it
/// with QR set, at no CPU cost, and drops every `drop_every`-th query
/// (0: none). Records the ids of the queries it dropped.
class Responder : public sim::Node {
 public:
  Responder(sim::Simulator& sim, int drop_every)
      : sim::Node(sim, "responder"), drop_every_(drop_every) {
    sim.add_host_route(kAnsIp, this);
  }
  std::vector<std::uint16_t> dropped;

 protected:
  SimDuration process(const net::Packet& p) override {
    const std::uint16_t id = static_cast<std::uint16_t>(
        (std::uint16_t{p.payload[0]} << 8) | p.payload[1]);
    if (drop_every_ > 0 && ++seen_ % drop_every_ == 0) {
      dropped.push_back(id);
      return {};
    }
    Bytes reply(p.payload.begin(), p.payload.end());
    reply[2] |= 0x80;  // QR
    send(net::Packet::make_udp(p.dst(), p.src(), std::move(reply)));
    return {};
  }

 private:
  int drop_every_;
  int seen_ = 0;
};

TEST(Driver, OneLiveTimerPerWorker) {
  // Exchanges take ~50 ms against a 200 ms timeout, so a timer per
  // exchange would leave about four dead ones per worker in the queue.
  // One timer per worker, moved to each new deadline, keeps the queue at
  // most a timer per worker plus the packets in flight.
  sim::Simulator sim;
  Responder server(sim, /*drop_every=*/0);
  constexpr int kWorkers = 16;
  LrsSimulatorNode driver(sim, "driver",
                          {.address = kDriverIp,
                           .target = {kAnsIp, net::kDnsPort},
                           .mode = DriveMode::PlainUdp,
                           .concurrency = kWorkers,
                           .timeout = milliseconds(200)});
  sim.add_host_route(kDriverIp, &driver);
  sim.set_latency(&driver, &server, milliseconds(25));
  driver.start();
  std::size_t peak = 0;
  for (int step = 0; step < 2000; ++step) {
    sim.run_for(milliseconds(1));
    const auto& n = sim.stats();
    const std::uint64_t in_flight =
        n.packets_sent - n.packets_delivered - n.packets_dropped_no_route -
        n.packets_dropped_queue_full - n.packets_dropped_loss;
    ASSERT_LE(sim.pending_events(), kWorkers + in_flight) << "at step "
                                                          << step;
    peak = std::max(peak, sim.pending_events());
  }
  driver.stop();
  EXPECT_EQ(driver.driver_stats().timeouts, 0u);
  EXPECT_GT(driver.driver_stats().completed, 500u);
  EXPECT_LE(peak, 2u * kWorkers);
}

TEST(Driver, DroppedExchangeRetriesExactlyOneTimeoutLater) {
  // Every other query is dropped. The worker's one timer, moved forward
  // by each answered exchange, must still fire exactly `timeout` after
  // the dropped query left, so the next query departs then (tap time).
  sim::Simulator sim;
  Responder server(sim, /*drop_every=*/2);
  const SimDuration timeout = milliseconds(10);
  LrsSimulatorNode driver(sim, "driver",
                          {.address = kDriverIp,
                           .target = {kAnsIp, net::kDnsPort},
                           .mode = DriveMode::PlainUdp,
                           .concurrency = 1,
                           .timeout = timeout});
  sim.add_host_route(kDriverIp, &driver);
  std::vector<std::pair<SimTime, std::uint16_t>> sent;  // (departure, id)
  sim.set_tap([&](SimTime t, const sim::Node* from, const sim::Node*,
                  const net::Packet& p) {
    if (from != &driver) return;
    sent.emplace_back(t, static_cast<std::uint16_t>(
                             (std::uint16_t{p.payload[0]} << 8) |
                             p.payload[1]));
  });
  driver.start();
  sim.run_for(milliseconds(200));
  driver.stop();
  ASSERT_GE(server.dropped.size(), 5u);
  // The last dropped query may still be waiting when the run ends.
  EXPECT_LE(driver.driver_stats().timeouts, server.dropped.size());
  EXPECT_GE(driver.driver_stats().timeouts + 1, server.dropped.size());
  std::size_t checked = 0;
  for (std::size_t i = 0; i + 1 < sent.size(); ++i) {
    if (std::find(server.dropped.begin(), server.dropped.end(),
                  sent[i].second) == server.dropped.end()) {
      continue;
    }
    EXPECT_EQ((sent[i + 1].first - sent[i].first).ns, timeout.ns)
        << "after dropped query " << sent[i].second;
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST(Driver, ModeNamesAreStable) {
  EXPECT_EQ(drive_mode_name(DriveMode::PlainUdp), "plain-udp");
  EXPECT_EQ(drive_mode_name(DriveMode::NsNameMiss), "ns-name/miss");
  EXPECT_EQ(drive_mode_name(DriveMode::TcpWithRedirect), "tcp/redirect");
}

TEST(TablePrinterFormat, Numbers) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::kilo(84200), "84.2K");
  EXPECT_EQ(TablePrinter::percent(0.256), "25.6%");
}

TEST(DriverQidIndex, MatchesAMapUnderRandomChurn) {
  // The driver's flat index against std::unordered_map: ids claimed in
  // sequence (as the driver does) and in random order, each of at most
  // `live` workers holding one id, so the table never fills.
  for (const bool sequential : {true, false}) {
    for (const int live : {1, 3, 4, 250}) {
      SCOPED_TRACE(testing::Message() << "live " << live << " sequential "
                                      << sequential);
      LrsSimulatorNode::QidIndex index;
      index.reset(2 * static_cast<std::size_t>(live));
      std::unordered_map<std::uint16_t, int> oracle;
      std::vector<std::uint16_t> held(static_cast<std::size_t>(live), 0);
      Rng rng(static_cast<std::uint64_t>(live) * 2 + (sequential ? 1 : 0));
      std::uint16_t next = 1;
      for (int step = 0; step < 20000; ++step) {
        const auto w = static_cast<int>(rng.bounded(held.size()));
        std::uint16_t& qid = held[static_cast<std::size_t>(w)];
        if (qid != 0) {
          index.erase(qid);
          oracle.erase(qid);
          qid = 0;
        }
        if (rng.chance(0.8)) {
          std::uint16_t fresh;
          do {
            fresh = sequential ? next++
                               : static_cast<std::uint16_t>(rng.next());
          } while (fresh == 0 || oracle.count(fresh) > 0);
          ASSERT_EQ(index.find(fresh), -1);
          index.insert(fresh, w);
          oracle[fresh] = w;
          qid = fresh;
        }
        for (const std::uint16_t q : held) {
          if (q != 0) {
            ASSERT_EQ(index.find(q), oracle.at(q));
          }
        }
        const auto probe = static_cast<std::uint16_t>(rng.next());
        ASSERT_EQ(index.find(probe),
                  oracle.count(probe) > 0 ? oracle.at(probe) : -1);
      }
      index.clear();
      for (const std::uint16_t q : held) {
        if (q != 0) {
          EXPECT_EQ(index.find(q), -1);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dnsguard::workload
