// Discrete-event simulator: ordering, routing, latency, CPU model,
// queue overflow, gateways, and packet conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/spsc_ring.h"
#include "sim/event_queue.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace dnsguard::sim {
namespace {

using net::Ipv4Address;
using net::Packet;
using net::SocketAddr;

/// Test node: fixed per-packet cost, records arrival times, optional echo.
class ProbeNode : public Node {
 public:
  ProbeNode(Simulator& sim, std::string name, SimDuration cost,
            std::size_t queue_cap = 4096)
      : Node(sim, std::move(name), queue_cap), cost_(cost) {}

  std::vector<SimTime> arrivals;
  bool echo = false;

 protected:
  SimDuration process(const Packet& p) override {
    arrivals.push_back(now());
    if (echo) {
      send(Packet::make_udp(p.dst(), p.src(), p.payload));
    }
    return cost_;
  }

 private:
  SimDuration cost_;
};

Packet make_pkt(Ipv4Address from, Ipv4Address to, std::size_t n = 10) {
  return Packet::make_udp({from, 1000}, {to, 53}, Bytes(n, 0));
}

TEST(EventQueue, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(milliseconds(3), [&] { order.push_back(3); });
  sim.schedule_in(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_in(milliseconds(2), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_in(milliseconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EmptyQueueIsGuarded) {
  // Regression: next_time()/pop() used to call heap_.top() on an empty
  // priority_queue (UB). Now they return well-defined sentinels.
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNoEventTime);
  SimTime at{-1};
  EventFn fn = q.pop(at);
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(at, kNoEventTime);
  // The queue is still usable afterwards.
  q.schedule(SimTime{5}, [] {});
  EXPECT_EQ(q.next_time(), SimTime{5});
}

TEST(EventQueue, RandomizedOrderIsDeterministicTimeThenSeq) {
  // Drain order must be exactly (time, insertion sequence) — the
  // determinism contract the 4-ary heap has to preserve, including many
  // same-instant ties.
  EventQueue q;
  Rng rng(0xfeedULL);
  std::vector<std::pair<std::int64_t, int>> expected;  // (time, insert idx)
  for (int i = 0; i < 2000; ++i) {
    auto t = static_cast<std::int64_t>(rng.next() % 64);  // dense ties
    expected.emplace_back(t, i);
    q.schedule(SimTime{t}, [] {});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (const auto& [t, idx] : expected) {
    SimTime at;
    EventFn fn = q.pop(at);
    ASSERT_TRUE(static_cast<bool>(fn));
    ASSERT_EQ(at.ns, t);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameInstantFifoAcrossNestedScheduling) {
  // Events scheduled *while running* at the current instant still fire
  // after previously scheduled same-instant events.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(milliseconds(1), [&] {
    order.push_back(0);
    sim.schedule_in(SimDuration{}, [&] { order.push_back(2); });
  });
  sim.schedule_in(milliseconds(1), [&] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Every event capture lives inline in its slot: one that does not fit the
// 120-byte buffer does not convert to an EventFn, so it fails to compile
// rather than taking a slower out-of-line path.
template <std::size_t N>
struct CaptureOf {
  std::array<std::byte, N> bytes;
  void operator()() {}
};
static_assert(std::is_constructible_v<EventFn, CaptureOf<120>>);
static_assert(!std::is_constructible_v<EventFn, CaptureOf<121>>);
static_assert(!std::is_assignable_v<EventFn&, CaptureOf<121>>);

TEST(EventQueue, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(milliseconds(1), [&] { fired++; });
  sim.schedule_in(milliseconds(10), [&] { fired++; });
  sim.run_until(SimTime{} + milliseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns, milliseconds(5).ns);
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Routing, LongestPrefixWins) {
  Simulator sim;
  ProbeNode subnet_owner(sim, "subnet", SimDuration{});
  ProbeNode host_owner(sim, "host", SimDuration{});
  ProbeNode sender(sim, "sender", SimDuration{});
  sim.add_route(Ipv4Address(10, 0, 0, 0), 24, &subnet_owner);
  sim.add_host_route(Ipv4Address(10, 0, 0, 7), &host_owner);

  sim.send_packet(&sender, make_pkt(Ipv4Address(1, 1, 1, 1),
                                    Ipv4Address(10, 0, 0, 7)));
  sim.send_packet(&sender, make_pkt(Ipv4Address(1, 1, 1, 1),
                                    Ipv4Address(10, 0, 0, 8)));
  sim.run_all();
  EXPECT_EQ(host_owner.arrivals.size(), 1u);
  EXPECT_EQ(subnet_owner.arrivals.size(), 1u);
}

TEST(Routing, NoRouteCountsDrop) {
  Simulator sim;
  ProbeNode sender(sim, "sender", SimDuration{});
  sim.send_packet(&sender, make_pkt(Ipv4Address(1, 1, 1, 1),
                                    Ipv4Address(9, 9, 9, 9)));
  sim.run_all();
  EXPECT_EQ(sim.stats().packets_dropped_no_route, 1u);
  EXPECT_EQ(sim.stats().packets_delivered, 0u);
}

TEST(Latency, PerPairOverridesDefault) {
  Simulator sim;
  sim.set_default_latency(microseconds(200));
  ProbeNode a(sim, "a", SimDuration{});
  ProbeNode b(sim, "b", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &a);
  sim.add_host_route(Ipv4Address(10, 0, 0, 2), &b);
  sim.set_latency(&a, &b, milliseconds(5));

  sim.send_packet(&a, make_pkt(Ipv4Address(10, 0, 0, 1),
                               Ipv4Address(10, 0, 0, 2)));
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].ns, milliseconds(5).ns);
}

TEST(SpscRing, FifoOrderSurvivesDoublingWhileWrapped) {
  common::SpscRing<int> ring(1000);
  int next_in = 0;
  int next_out = 0;
  int out = -1;
  // Advance the indices so the 16 initial slots wrap, then fill them.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ring.try_push(next_in++));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, next_out++);
  }
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(ring.try_push(next_in++));
  // The next pushes double the storage twice, the first time wrapped.
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(ring.try_push(next_in++));
  EXPECT_EQ(ring.size(), 56u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, next_out++);
  }
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(ring.try_push(next_in++));
  while (ring.try_pop(out)) EXPECT_EQ(out, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullAtExactlyANonPowerOfTwoLimit) {
  for (const std::size_t limit : {5u, 100u}) {
    SCOPED_TRACE(limit);
    common::SpscRing<int> ring(limit);
    for (std::size_t i = 0; i < limit; ++i) {
      EXPECT_FALSE(ring.full());
      ASSERT_TRUE(ring.try_push(static_cast<int>(i)));
    }
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.size(), limit);
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_FALSE(ring.full());
  }
}

TEST(SpscRing, PushPastTheLimitFailsAndKeepsTheValue) {
  common::SpscRing<std::unique_ptr<int>> ring(3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.try_push(std::make_unique<int>(i)));
  }
  auto extra = std::make_unique<int>(99);
  EXPECT_FALSE(ring.try_push(std::move(extra)));
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(*extra, 99);
  EXPECT_EQ(ring.size(), 3u);
  std::unique_ptr<int> out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(*out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(CpuModel, ServiceTimesSerialize) {
  // Two packets arriving together at a 1 ms/packet server: the second is
  // serviced 1 ms after the first.
  Simulator sim;
  ProbeNode server(sim, "server", milliseconds(1));
  server.echo = true;
  ProbeNode client(sim, "client", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &server);
  sim.add_host_route(Ipv4Address(10, 0, 0, 9), &client);
  sim.set_default_latency(SimDuration{});  // isolate service time

  sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  sim.run_all();
  // Echo responses leave at end-of-service: t=1ms and t=2ms.
  ASSERT_EQ(client.arrivals.size(), 2u);
  EXPECT_EQ(client.arrivals[0].ns, milliseconds(1).ns);
  EXPECT_EQ(client.arrivals[1].ns, milliseconds(2).ns);
  EXPECT_EQ(server.stats().busy.ns, milliseconds(2).ns);
}

TEST(CpuModel, UtilizationMatchesLoad) {
  // 100 req/s at 1 ms each => 10% utilization.
  Simulator sim;
  ProbeNode server(sim, "server", milliseconds(1));
  ProbeNode client(sim, "client", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &server);

  for (int i = 0; i < 100; ++i) {
    sim.schedule_in(milliseconds(10 * i), [&] {
      sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                        Ipv4Address(10, 0, 0, 1)));
    });
  }
  sim.run_until(SimTime{} + seconds(1));
  EXPECT_NEAR(server.utilization(seconds(1)), 0.1, 0.01);
}

TEST(CpuModel, SaturationDropsAtFullQueue) {
  // A server with 1 ms service hit with 300 packets at once: every packet
  // arrives before the first service event, so the queue accepts exactly
  // its depth and drops the rest. A queue that rounded its depth up to a
  // power of two would accept 8 at depth 5 and 128 at depth 100.
  for (const std::size_t depth : {4u, 5u, 100u}) {
    SCOPED_TRACE(depth);
    Simulator sim;
    ProbeNode server(sim, "server", milliseconds(1), depth);
    ProbeNode client(sim, "client", SimDuration{});
    sim.add_host_route(Ipv4Address(10, 0, 0, 1), &server);

    for (int i = 0; i < 300; ++i) {
      sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                        Ipv4Address(10, 0, 0, 1)));
    }
    sim.run_all();
    EXPECT_EQ(server.stats().rx.value(), depth);
    EXPECT_EQ(server.stats().dropped_queue_full.value(), 300u - depth);
    EXPECT_EQ(server.arrivals.size(), depth);
  }
}

TEST(Conservation, SentEqualsDeliveredPlusDropped) {
  Simulator sim;
  ProbeNode server(sim, "server", microseconds(100), /*queue_cap=*/8);
  ProbeNode client(sim, "client", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &server);

  for (int i = 0; i < 500; ++i) {
    sim.schedule_in(microseconds(i * 7), [&] {
      sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                        Ipv4Address(10, 0, 0, 1)));
    });
    sim.schedule_in(microseconds(i * 11), [&] {
      sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                        Ipv4Address(7, 7, 7, 7)));  // no route
    });
  }
  sim.run_all();
  const auto& s = sim.stats();
  EXPECT_EQ(s.packets_sent, s.packets_delivered +
                                s.packets_dropped_no_route +
                                s.packets_dropped_queue_full);
  EXPECT_EQ(s.packets_sent, 1000u);
}

TEST(Gateway, RedirectsAllTraffic) {
  Simulator sim;
  ProbeNode ans(sim, "ans", SimDuration{});
  ProbeNode guard(sim, "guard", SimDuration{});
  ProbeNode lrs(sim, "lrs", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 100), &lrs);
  sim.set_gateway(&ans, &guard);

  // ANS "responds" toward the LRS; the packet must land on the guard.
  sim.send_packet(&ans, make_pkt(Ipv4Address(10, 0, 0, 1),
                                 Ipv4Address(10, 0, 0, 100)));
  sim.run_all();
  EXPECT_EQ(guard.arrivals.size(), 1u);
  EXPECT_EQ(lrs.arrivals.size(), 0u);

  sim.clear_gateway(&ans);
  sim.send_packet(&ans, make_pkt(Ipv4Address(10, 0, 0, 1),
                                 Ipv4Address(10, 0, 0, 100)));
  sim.run_all();
  EXPECT_EQ(lrs.arrivals.size(), 1u);
}

TEST(Gateway, SendDirectBypassesRouting) {
  Simulator sim;
  ProbeNode a(sim, "a", SimDuration{});
  ProbeNode b(sim, "b", SimDuration{});
  // No routes at all: direct delivery must still work.
  sim.send_direct(&a, &b, make_pkt(Ipv4Address(1, 1, 1, 1),
                                   Ipv4Address(2, 2, 2, 2)));
  sim.run_all();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(NodeIds, AssignedMonotonicallyAndNeverReused) {
  Simulator sim;
  ProbeNode a(sim, "a", SimDuration{});
  ProbeNode b(sim, "b", SimDuration{});
  EXPECT_NE(a.sim_id(), 0u);
  EXPECT_LT(a.sim_id(), b.sim_id());
  std::uint64_t old_id;
  {
    ProbeNode c(sim, "c", SimDuration{});
    old_id = c.sim_id();
  }
  ProbeNode d(sim, "d", SimDuration{});
  EXPECT_GT(d.sim_id(), old_id);  // ids from destroyed nodes are retired
}

TEST(NodeIds, DestroyedNodeConfigCannotAliasNewNode) {
  // Regression: gateway/latency config used to be keyed by Node pointer
  // value, so a new node allocated at a dead node's address inherited its
  // config (and made reruns depend on heap layout). Ids are never reused,
  // so a successor node — whatever its address — sees clean config.
  Simulator sim;
  sim.set_default_latency(microseconds(200));
  ProbeNode b(sim, "b", SimDuration{});
  ProbeNode guard(sim, "guard", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 2), &b);

  auto doomed = std::make_unique<ProbeNode>(sim, "doomed", SimDuration{});
  sim.set_latency(doomed.get(), &b, milliseconds(50));
  sim.set_gateway(doomed.get(), &guard);
  doomed.reset();

  // Same size/type so the allocator is likely to hand back the same slot;
  // the assertion must hold either way.
  auto successor = std::make_unique<ProbeNode>(sim, "successor", SimDuration{});
  EXPECT_EQ(sim.latency_between(successor.get(), &b).ns,
            microseconds(200).ns);
  sim.send_packet(successor.get(), make_pkt(Ipv4Address(10, 0, 0, 9),
                                            Ipv4Address(10, 0, 0, 2)));
  sim.run_all();
  EXPECT_EQ(guard.arrivals.size(), 0u);  // not diverted to the old gateway
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(NodeIds, DestroyedNodeRoutesAreDropped) {
  // A destroyed node's routes used to stay in the table, so the next
  // packet to its address went through a freed Node*.
  Simulator sim;
  ProbeNode sender(sim, "s", SimDuration{});
  auto doomed = std::make_unique<ProbeNode>(sim, "doomed", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 7), doomed.get());
  doomed.reset();
  sim.send_packet(&sender, make_pkt(Ipv4Address(9, 9, 9, 9),
                                    Ipv4Address(10, 0, 0, 7)));
  sim.run_all();
  EXPECT_EQ(sim.stats().packets_dropped_no_route, 1u);
  EXPECT_EQ(sim.route_lookup(Ipv4Address(10, 0, 0, 7)), nullptr);
}

TEST(NodeIds, SenderDestroyedBeforeDepartureStillDelivers) {
  // A served packet's sends are handed to the network when its service
  // ends, so no event of the sender's runs at the departure: the server
  // may go away between service (0.1 ms) and departure (1.1 ms).
  Simulator sim;
  sim.set_default_latency(microseconds(100));
  ProbeNode client(sim, "client", SimDuration{});
  auto server = std::make_unique<ProbeNode>(sim, "server", milliseconds(1));
  server->echo = true;
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), server.get());
  sim.add_host_route(Ipv4Address(10, 0, 0, 9), &client);
  sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  sim.run_until(SimTime{microseconds(500).ns});
  ASSERT_EQ(server->arrivals.size(), 1u);
  server.reset();
  sim.run_all();
  ASSERT_EQ(client.arrivals.size(), 1u);
  EXPECT_EQ(client.arrivals[0].ns, microseconds(1200).ns);
}

TEST(Hop, IdleLaneServesOnArrival) {
  // A packet that finds its lane idle, with nothing else due at that
  // instant, is served inside its arrival event: each hop is one event,
  // and nothing runs at the departure, which the tap sees as the
  // packet's stamp.
  Simulator sim;
  sim.set_default_latency(microseconds(100));
  ProbeNode client(sim, "client", SimDuration{});
  ProbeNode server(sim, "server", milliseconds(1));
  server.echo = true;
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &server);
  sim.add_host_route(Ipv4Address(10, 0, 0, 9), &client);
  std::vector<std::int64_t> departures;
  sim.set_tap([&](SimTime t, const Node*, const Node*, const Packet&) {
    departures.push_back(t.ns);
  });
  sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  sim.run_all();
  ASSERT_EQ(client.arrivals.size(), 1u);
  EXPECT_EQ(client.arrivals[0].ns, microseconds(1200).ns);
  EXPECT_EQ(departures,
            (std::vector<std::int64_t>{0, microseconds(1100).ns}));
  EXPECT_EQ(sim.metrics().find_counter("sim.events_dispatched")->value(), 2u);
}

TEST(Hop, BusyLaneStillSchedulesService) {
  // The second packet arrives while the first is in service: it waits for
  // a service event at the lane's busy_until, and leaves one service time
  // after the first.
  Simulator sim;
  sim.set_default_latency(microseconds(100));
  ProbeNode client(sim, "client", SimDuration{});
  ProbeNode server(sim, "server", milliseconds(1));
  server.echo = true;
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &server);
  sim.add_host_route(Ipv4Address(10, 0, 0, 9), &client);
  std::vector<std::int64_t> departures;
  sim.set_tap([&](SimTime t, const Node*, const Node*, const Packet&) {
    departures.push_back(t.ns);
  });
  sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  sim.run_until(SimTime{microseconds(100).ns});
  sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  sim.run_until(SimTime{microseconds(200).ns});
  EXPECT_EQ(sim.pending_events(), 2u) << "the reply and the service event";
  sim.run_all();
  EXPECT_EQ(server.arrivals,
            (std::vector<SimTime>{SimTime{microseconds(100).ns},
                                  SimTime{microseconds(1100).ns}}));
  EXPECT_EQ(departures,
            (std::vector<std::int64_t>{0, microseconds(1100).ns,
                                       microseconds(100).ns,
                                       microseconds(2100).ns}));
  EXPECT_EQ(client.arrivals,
            (std::vector<SimTime>{SimTime{microseconds(1200).ns},
                                  SimTime{microseconds(2200).ns}}));
  // Two arrivals at the server, its one service event, two at the client.
  EXPECT_EQ(sim.metrics().find_counter("sim.events_dispatched")->value(), 5u);
}

TEST(Hop, SameInstantEventStillSchedulesService) {
  // An event due at the arrival's own instant, scheduled after it, runs
  // before the service, as it would with a service event: serving on
  // arrival must not jump it.
  Simulator sim;
  sim.set_default_latency(microseconds(100));
  ProbeNode client(sim, "client", SimDuration{});
  ProbeNode server(sim, "server", milliseconds(1));
  server.echo = true;
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &server);
  sim.add_host_route(Ipv4Address(10, 0, 0, 9), &client);
  sim.send_packet(&client, make_pkt(Ipv4Address(10, 0, 0, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  std::size_t served_before_marker = 99;
  sim.schedule_at(SimTime{microseconds(100).ns},
                  [&] { served_before_marker = server.arrivals.size(); });
  sim.run_all();
  EXPECT_EQ(served_before_marker, 0u);
  EXPECT_EQ(server.arrivals,
            (std::vector<SimTime>{SimTime{microseconds(100).ns}}));
  ASSERT_EQ(client.arrivals.size(), 1u);
  EXPECT_EQ(client.arrivals[0].ns, microseconds(1200).ns);
  // The arrival, the marker, the service event, the reply's arrival.
  EXPECT_EQ(sim.metrics().find_counter("sim.events_dispatched")->value(), 4u);
}

TEST(RemoveRoutes, StopsDelivery) {
  Simulator sim;
  ProbeNode a(sim, "a", SimDuration{});
  ProbeNode sender(sim, "s", SimDuration{});
  sim.add_host_route(Ipv4Address(10, 0, 0, 1), &a);
  sim.remove_routes_to(&a);
  sim.send_packet(&sender, make_pkt(Ipv4Address(9, 9, 9, 9),
                                    Ipv4Address(10, 0, 0, 1)));
  sim.run_all();
  EXPECT_EQ(a.arrivals.size(), 0u);
  EXPECT_EQ(sim.stats().packets_dropped_no_route, 1u);
}

}  // namespace
}  // namespace dnsguard::sim
