// Mini-TCP: handshake, message transfer, teardown, SYN cookies, framing.
//
// Two TcpStacks are wired back-to-back through an in-memory "wire" that
// delivers packets synchronously (loopback) or through a queue the test
// drains manually (to model loss).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "tcp/tcp_stack.h"

namespace dnsguard::tcp {
namespace {

using net::Ipv4Address;
using net::Packet;
using net::SocketAddr;

struct Harness {
  SimTime clock{};
  std::deque<Packet> wire_to_server;
  std::deque<Packet> wire_to_client;
  std::unique_ptr<TcpStack> client;
  std::unique_ptr<TcpStack> server;

  std::vector<std::pair<ConnId, Bytes>> client_messages, server_messages;
  /// Each close: the connection's name and the tag it carried.
  std::vector<std::pair<ConnId, std::uint32_t>> client_closed, server_closed;
  /// Runs after each server message is recorded.
  std::function<void(ConnId)> on_server_message;

  explicit Harness(TcpStack::Options server_options = {}) {
    client = std::make_unique<TcpStack>(
        [this](Packet p) { wire_to_server.push_back(std::move(p)); },
        [this] { return clock; },
        TcpStack::Callbacks{
            [this](ConnId c, BytesView m) {
              client_messages.emplace_back(c, Bytes(m.begin(), m.end()));
            },
            [this](ConnId c, std::uint32_t tag) {
              client_closed.emplace_back(c, tag);
            }},
        TcpStack::Options{});
    server = std::make_unique<TcpStack>(
        [this](Packet p) { wire_to_client.push_back(std::move(p)); },
        [this] { return clock; },
        TcpStack::Callbacks{
            [this](ConnId c, BytesView m) {
              server_messages.emplace_back(c, Bytes(m.begin(), m.end()));
              if (on_server_message) on_server_message(c);
            },
            [this](ConnId c, std::uint32_t tag) {
              server_closed.emplace_back(c, tag);
            }},
        server_options);
    server->listen(53);
  }

  /// The server's only connection.
  [[nodiscard]] ConnId server_conn() const {
    const auto conns = server->connections();
    EXPECT_EQ(conns.size(), 1u);
    return conns.empty() ? ConnId{} : conns[0].id;
  }
  [[nodiscard]] static bool established(const TcpStack& stack, ConnId c) {
    const auto info = stack.connection(c);
    return info && info->state == TcpState::Established;
  }

  /// Delivers queued packets until both directions are quiet.
  void pump(int max_rounds = 64) {
    for (int i = 0; i < max_rounds; ++i) {
      if (wire_to_server.empty() && wire_to_client.empty()) return;
      while (!wire_to_server.empty()) {
        Packet p = std::move(wire_to_server.front());
        wire_to_server.pop_front();
        server->handle_packet(p);
      }
      while (!wire_to_client.empty()) {
        Packet p = std::move(wire_to_client.front());
        wire_to_client.pop_front();
        client->handle_packet(p);
      }
    }
  }

  static SocketAddr client_addr() { return {Ipv4Address(10, 0, 0, 2), 4000}; }
  static SocketAddr server_addr() { return {Ipv4Address(10, 0, 0, 1), 53}; }
};

TEST(TcpHandshake, EstablishesBothSides) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  EXPECT_TRUE(Harness::established(*h.client, c));
  EXPECT_TRUE(Harness::established(*h.server, h.server_conn()));
  EXPECT_EQ(h.client->connection_count(), 1u);
  EXPECT_EQ(h.server->connection_count(), 1u);
}

TEST(TcpHandshake, SynToClosedPortGetsRst) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(),
                               {Ipv4Address(10, 0, 0, 1), 99});
  h.pump();
  EXPECT_FALSE(h.client->connection(c).has_value());
  EXPECT_EQ(h.client_closed.size(), 1u);
  EXPECT_EQ(h.client_closed[0].first, c);
  EXPECT_EQ(h.client->connection_count(), 0u);
}

TEST(TcpDropAccounting, StraySegmentsCharged) {
  // Every discarded segment must land on a DropReason: segments matching no
  // listener or connection are charged to kStraySegment (and RST'd away).
  Harness h;
  obs::DropCounters drops;
  h.server->set_drop_counters(&drops);

  // SYN to a non-listening port.
  h.client->connect(Harness::client_addr(), {Ipv4Address(10, 0, 0, 1), 99});
  h.pump();
  EXPECT_EQ(drops.value(obs::DropReason::kStraySegment), 1u);

  // Data segment for a connection the server has already torn down.
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.server->abort(h.server_conn());
  h.wire_to_client.clear();  // drop the RST so the client still believes
                             // the connection is up
  EXPECT_TRUE(h.client->send_message(c, BytesView(Bytes{'h', 'i'})));
  h.pump();
  EXPECT_EQ(drops.value(obs::DropReason::kStraySegment), 2u);
  EXPECT_TRUE(h.server_messages.empty());
}

TEST(TcpData, RoundTripBothDirections) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  Bytes req{'h', 'i'};
  EXPECT_TRUE(h.client->send_message(c, BytesView(req)));
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, req);

  ConnId sc = h.server_conn();
  Bytes resp{'y', 'o', '!'};
  EXPECT_TRUE(h.server->send_message(sc, BytesView(resp)));
  h.pump();
  ASSERT_EQ(h.client_messages.size(), 1u);
  EXPECT_EQ(h.client_messages[0].second, resp);
}

TEST(TcpData, SendDuringHandshakeIsQueued) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  // No pump: still SYN_SENT, so only the SYN is on the wire.
  EXPECT_TRUE(h.client->send_message(c, BytesView(Bytes{1})));
  EXPECT_EQ(h.wire_to_server.size(), 1u);
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, (Bytes{1}));

  h.client->abort(c);
  EXPECT_FALSE(h.client->send_message(c, BytesView(Bytes{2})));
}

TEST(TcpData, SequenceNumbersAdvanceWithData) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->send_message(c, BytesView(Bytes(10, 'a')));
  h.pump();
  h.client->send_message(c, BytesView(Bytes(5, 'b')));
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 2u);
  EXPECT_EQ(h.server_messages[0].second.size(), 10u);
  EXPECT_EQ(h.server_messages[1].second.size(), 5u);
}

TEST(TcpData, DuplicateSegmentIgnored) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->send_message(c, BytesView(Bytes{1, 2, 3}));
  ASSERT_FALSE(h.wire_to_server.empty());
  Packet dup = h.wire_to_server.front();  // copy the data segment
  h.pump();
  EXPECT_EQ(h.server_messages.size(), 1u);
  h.server->handle_packet(dup);  // replay
  h.pump();
  EXPECT_EQ(h.server_messages.size(), 1u);  // not delivered twice
}

TEST(TcpClose, GracefulFinBothSides) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  ConnId sc = h.server_conn();
  h.client->close(c);
  h.pump();
  // Server saw FIN, is in CLOSE_WAIT; now server closes too.
  h.server->close(sc);
  h.pump();
  EXPECT_EQ(h.client->connection_count(), 0u);
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.client_closed.size(), 1u);
  EXPECT_EQ(h.server_closed.size(), 1u);
}

TEST(TcpClose, AbortSendsRst) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->abort(c);
  h.pump();
  EXPECT_EQ(h.client->connection_count(), 0u);
  EXPECT_EQ(h.server->connection_count(), 0u);  // RST tore the peer down
  EXPECT_GE(h.server_closed.size(), 1u);
}

TEST(TcpReap, IdleConnectionsRemoved) {
  Harness h({.max_idle = seconds(5)});
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.clock = h.clock + seconds(10);
  // The next segment the server handles finds the connection expired.
  h.client->send_message(c, BytesView(Bytes{1}));
  h.pump();
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().connections_reaped, 1u);
}

TEST(TcpReap, LifetimeLimitEnforced) {
  // §III.C: connections alive longer than 5x RTT are removed.
  Harness h({.max_lifetime = milliseconds(2)});
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.clock = h.clock + milliseconds(3);
  h.client->send_message(c, BytesView(Bytes{1}));  // keep it non-idle
  h.pump();
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().connections_reaped, 1u);
}

TEST(TcpReap, NoLimitNoExpiry) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.clock = h.clock + seconds(3600);
  ASSERT_TRUE(h.client->send_message(c, BytesView(Bytes{'q'})));
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, (Bytes{'q'}));
  EXPECT_EQ(h.server->connection_count(), 1u);
  EXPECT_EQ(h.server->stats().connections_reaped, 0u);
}

TEST(SynCookies, StatelessUntilAckArrives) {
  Harness h({.syn_cookies = true});
  h.client->connect(Harness::client_addr(), Harness::server_addr());
  // Deliver only the SYN.
  ASSERT_EQ(h.wire_to_server.size(), 1u);
  h.server->handle_packet(h.wire_to_server.front());
  h.wire_to_server.pop_front();
  // Server must keep NO state after SYN (that's the whole point).
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().syn_cookies_sent, 1u);
  // Complete the handshake.
  h.pump();
  EXPECT_EQ(h.server->connection_count(), 1u);
  EXPECT_EQ(h.server->stats().syn_cookies_accepted, 1u);
  EXPECT_TRUE(Harness::established(*h.server, h.server_conn()));
}

TEST(SynCookies, DataFlowsAfterCookieHandshake) {
  Harness h({.syn_cookies = true});
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->send_message(c, BytesView(Bytes{'q'}));
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, (Bytes{'q'}));
}

TEST(SynCookies, ForgedAckRejected) {
  Harness h({.syn_cookies = true});
  // An attacker skips the SYN and fires a bare ACK with a made-up ack
  // number (blind spoofing): must be rejected with a RST, no state.
  Packet forged = Packet::make_tcp({Ipv4Address(6, 6, 6, 6), 1234},
                                   Harness::server_addr(),
                                   net::TcpFlags{.ack = true},
                                   /*seq=*/1000, /*ack=*/0xdeadbeef);
  h.server->handle_packet(forged);
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().syn_cookies_rejected, 1u);
  EXPECT_GE(h.server->stats().resets_sent, 1u);
}

TEST(SynCookies, StaleCookieRejected) {
  Harness h({.syn_cookies = true});
  h.client->connect(Harness::client_addr(), Harness::server_addr());
  // SYN reaches server; SYN-ACK reaches client; client emits final ACK.
  h.server->handle_packet(h.wire_to_server.front());
  h.wire_to_server.pop_front();
  h.client->handle_packet(h.wire_to_client.front());
  h.wire_to_client.pop_front();
  ASSERT_FALSE(h.wire_to_server.empty());
  // Let far more than two cookie time slots pass before the ACK lands.
  h.clock = h.clock + seconds(60);
  h.server->handle_packet(h.wire_to_server.front());
  h.wire_to_server.pop_front();
  EXPECT_EQ(h.server->connection_count(), 0u);
  EXPECT_EQ(h.server->stats().syn_cookies_rejected, 1u);
}

TEST(SynCookieGenerator, ValidatesOwnCookies) {
  SynCookieGenerator gen(1234);
  SocketAddr c{Ipv4Address(10, 0, 0, 2), 4000};
  SocketAddr s{Ipv4Address(10, 0, 0, 1), 53};
  SimTime t{1000000};
  std::uint32_t isn = gen.make(c, s, 555, t);
  EXPECT_TRUE(gen.validate(c, s, 555, isn, t));
  EXPECT_TRUE(gen.validate(c, s, 555, isn, t + seconds(7)));
  EXPECT_FALSE(gen.validate(c, s, 556, isn, t));        // wrong client ISN
  EXPECT_FALSE(gen.validate(c, s, 555, isn ^ 1, t));    // corrupted cookie
  SocketAddr other{Ipv4Address(10, 0, 0, 3), 4000};
  EXPECT_FALSE(gen.validate(other, s, 555, isn, t));    // wrong client
}

TEST(TcpFraming, LengthPrefixOnTheWire) {
  // RFC 1035 §4.2.2: two bytes of big-endian length, then the message.
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  Bytes msg(300, 'x');
  msg[0] = 'a';
  ASSERT_TRUE(h.client->send_message(c, BytesView(msg)));
  ASSERT_EQ(h.wire_to_server.size(), 1u);
  const Packet& seg = h.wire_to_server.front();
  EXPECT_TRUE(seg.flags.psh);
  ASSERT_EQ(seg.payload.size(), 302u);
  EXPECT_EQ(seg.payload[0], 0x01);
  EXPECT_EQ(seg.payload[1], 0x2c);
  EXPECT_EQ(seg.payload[2], 'a');
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, msg);
}

TEST(TcpFraming, MessageSplitOneBytePerSegmentArrivesOnceWhole) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  Bytes msg(300, 'x');
  msg.back() = 'z';
  h.client->send_message(c, BytesView(msg));
  ASSERT_EQ(h.wire_to_server.size(), 1u);
  const Packet whole = h.wire_to_server.front();
  h.wire_to_server.clear();
  // Re-send the segment's bytes one per segment, in sequence.
  for (std::size_t i = 0; i < whole.payload.size(); ++i) {
    EXPECT_TRUE(h.server_messages.empty()) << "delivered early at byte " << i;
    h.server->handle_packet(Packet::make_tcp(
        whole.src(), whole.dst(), net::TcpFlags{.psh = true, .ack = true},
        whole.seq + static_cast<std::uint32_t>(i), whole.ack,
        Bytes{whole.payload[i]}));
  }
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, msg);
}

TEST(TcpFraming, HandshakeMessagesLeaveInOneSegmentInOrder) {
  Harness h;
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  const Bytes a{'1'}, b{'2', '2'};
  ASSERT_TRUE(h.client->send_message(c, BytesView(a)));
  ASSERT_TRUE(h.client->send_message(c, BytesView(b)));
  // SYN to the server, SYN-ACK back: the client answers with its ACK,
  // then one segment carrying both messages.
  h.server->handle_packet(h.wire_to_server.front());
  h.wire_to_server.pop_front();
  h.client->handle_packet(h.wire_to_client.front());
  h.wire_to_client.pop_front();
  ASSERT_EQ(h.wire_to_server.size(), 2u);
  const Packet& ack = h.wire_to_server[0];
  const Packet& data = h.wire_to_server[1];
  EXPECT_TRUE(ack.payload.empty());
  EXPECT_TRUE(data.flags.psh);
  EXPECT_EQ(data.seq, ack.seq);
  EXPECT_EQ(data.payload, (Bytes{0, 1, '1', 0, 2, '2', '2'}));
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 2u);
  EXPECT_EQ(h.server_messages[0].second, a);
  EXPECT_EQ(h.server_messages[1].second, b);
}

TEST(TcpFraming, CallbackThatAbortsStopsDelivery) {
  // The rest of a segment is not delivered on a connection its first
  // message's callback aborted.
  Harness h;
  h.on_server_message = [&h](ConnId sc) { h.server->abort(sc); };
  ConnId c = h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.client->send_message(c, BytesView(Bytes{'a'}));
  h.client->send_message(c, BytesView(Bytes{'b'}));
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, (Bytes{'a'}));
  EXPECT_EQ(h.server->connection_count(), 0u);
}

TEST(TcpIdentity, TagRidesTheConnectionToItsClose) {
  Harness h;
  const ConnId c =
      h.client->connect(Harness::client_addr(), Harness::server_addr());
  EXPECT_EQ(c, (ConnId{Harness::client_addr(), Harness::server_addr()}));
  h.pump();
  const ConnId sc = h.server_conn();
  EXPECT_EQ(sc, (ConnId{Harness::server_addr(), Harness::client_addr()}));
  ASSERT_NE(h.server->tag(sc), nullptr);
  EXPECT_EQ(*h.server->tag(sc), 0u) << "an accepted connection starts at 0";
  *h.server->tag(sc) = 0xfeed;
  h.client->abort(c);
  h.pump();
  ASSERT_EQ(h.server_closed.size(), 1u);
  EXPECT_EQ(h.server_closed[0].first, sc);
  EXPECT_EQ(h.server_closed[0].second, 0xfeedu);
  EXPECT_EQ(h.server->tag(sc), nullptr);
  EXPECT_EQ(h.client->tag(c), nullptr);
}

TEST(TcpIdentity, ReconnectOnTheSamePairNamesTheNewConnection) {
  Harness h;
  const ConnId first =
      h.client->connect(Harness::client_addr(), Harness::server_addr());
  h.pump();
  h.client->close(first);
  h.pump();
  h.server->close(h.server_conn());
  h.pump();
  ASSERT_EQ(h.client->connection_count(), 0u);
  ASSERT_EQ(h.server_closed.size(), 1u);

  const ConnId second =
      h.client->connect(Harness::client_addr(), Harness::server_addr());
  EXPECT_EQ(second, first);
  h.pump();
  EXPECT_TRUE(Harness::established(*h.client, second));
  ASSERT_TRUE(h.client->send_message(second, BytesView(Bytes{'r'})));
  h.pump();
  ASSERT_EQ(h.server_messages.size(), 1u);
  EXPECT_EQ(h.server_messages[0].second, (Bytes{'r'}));
  EXPECT_EQ(h.server_closed.size(), 1u)
      << "the new connection is open; only the first one closed";
}

/// Why a connection leaves its table involuntarily.
enum class Expiry { kCapacity, kIdle, kLifetime };

/// Opens a connection with tag 7, lets `cause` remove it, and checks that it
/// closes as any other close does (tag, journey mark, RST to the peer) and
/// books its own tally.
void expect_expiry_ends_like_every_other_close(Expiry cause) {
  SimTime clock{};
  std::vector<Packet> sent;
  std::vector<std::pair<ConnId, std::uint32_t>> closed;
  std::vector<std::pair<SocketAddr, std::string_view>> marks;
  TcpStack::Options options;
  switch (cause) {
    case Expiry::kCapacity: options.max_connections = 1; break;
    case Expiry::kIdle: options.max_idle = milliseconds(1); break;
    case Expiry::kLifetime: options.max_lifetime = milliseconds(1); break;
  }
  TcpStack stack([&sent](Packet p) { sent.push_back(std::move(p)); },
                 [&clock] { return clock; },
                 TcpStack::Callbacks{
                     .on_message = {},
                     .on_closed =
                         [&closed](ConnId c, std::uint32_t tag) {
                           closed.emplace_back(c, tag);
                         }},
                 options);
  obs::DropCounters drops;
  stack.set_drop_counters(&drops);
  stack.set_journey_fn(
      [&marks](SocketAddr client, std::string_view stage, bool may_open) {
        marks.emplace_back(client, stage);
        EXPECT_EQ(may_open, stage != "tcp.closed");
      });
  const SocketAddr a{Ipv4Address(10, 0, 0, 2), 4001};
  const SocketAddr b{Ipv4Address(10, 0, 0, 2), 4002};
  const ConnId first = stack.connect(a, Harness::server_addr());
  *stack.tag(first) = 7;
  clock = clock + milliseconds(2);
  // At the cap, the second connect() evicts the first. Past a limit, the
  // first segment the stack handles resets it: here the SYN-ACK of the
  // second connection.
  const ConnId second = stack.connect(b, Harness::server_addr());
  if (cause != Expiry::kCapacity) {
    stack.handle_packet(Packet::make_tcp(
        Harness::server_addr(), b, net::TcpFlags{.syn = true, .ack = true},
        /*seq=*/9000, /*ack=*/sent.back().seq + 1));
  }
  EXPECT_EQ(stack.tag(first), nullptr);
  EXPECT_NE(stack.tag(second), nullptr);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].first, first);
  EXPECT_EQ(closed[0].second, 7u);
  const std::pair<SocketAddr, std::string_view> closed_mark{a, "tcp.closed"};
  EXPECT_EQ(std::count(marks.begin(), marks.end(), closed_mark), 1);
  EXPECT_EQ(std::count_if(sent.begin(), sent.end(),
                          [&a](const Packet& p) {
                            return p.flags.rst && p.src() == a &&
                                   p.dst() == Harness::server_addr();
                          }),
            1);
  const bool capacity = cause == Expiry::kCapacity;
  EXPECT_EQ(stack.stats().connections_evicted, capacity ? 1u : 0u);
  EXPECT_EQ(drops.value(obs::DropReason::kStateTableFull), capacity ? 1u : 0u);
  EXPECT_EQ(stack.stats().connections_reaped, capacity ? 0u : 1u);
  EXPECT_EQ(drops.value(obs::DropReason::kProxyTimeout), capacity ? 0u : 1u);
}

TEST(TcpIdentity, EvictionEndsLikeEveryOtherClose) {
  for (const Expiry cause :
       {Expiry::kCapacity, Expiry::kIdle, Expiry::kLifetime}) {
    SCOPED_TRACE(static_cast<int>(cause));
    expect_expiry_ends_like_every_other_close(cause);
  }
}

}  // namespace
}  // namespace dnsguard::tcp
