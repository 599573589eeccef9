// A miniature TCP implementation sufficient for DNS-over-TCP.
//
// Scope (deliberate): three-way handshake with optional SYN cookies,
// in-order reliable data transfer of small segments, FIN/RST teardown,
// idle and lifetime limits. Links in the simulator never reorder and only
// drop at saturated receive queues, so there is no retransmission
// machinery: a stalled connection is reclaimed by its owner's limits,
// such as the DNS guard's "connection older than 5×RTT is removed" rule
// (§III.C). The limits live in Options and the connection table enforces
// them: an expired connection is reset when it is looked up, or when the
// table's reap cursor reaches it, a few slots per segment handled.
//
// The stack carries whole DNS messages, framed as RFC 1035 §4.2.2 says:
// send_message() writes each message behind its two-byte big-endian
// length, and on_message receives each message with the length removed,
// however the stream was segmented. The framing rule lives here and
// nowhere else.
//
// A connection is named by its socket pair (RFC 793 §2.7), the key of the
// connection table, and carries one 32-bit tag that its owner reads and
// writes through tag() and gets back in on_closed. Once a connection
// closes, its pair names any later connection on it, so an owner lets go
// of a name when on_closed reports it.
//
// The stack is transport only: it owns no sockets and charges no CPU. The
// owning simulation Node feeds packets in via handle_packet() and provides
// a send function; CPU costs are charged by the node's cost model.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/bounded_table.h"
#include "common/bytes.h"
#include "common/time.h"
#include "net/packet.h"
#include "obs/drop_reason.h"
#include "obs/metrics.h"
#include "tcp/syn_cookie.h"

namespace dnsguard::tcp {

/// A connection's name: its socket pair as this stack sees it. ConnId{}
/// (0.0.0.0:0 on both sides) names no connection.
struct ConnId {
  net::SocketAddr local;
  net::SocketAddr remote;
  auto operator<=>(const ConnId&) const = default;
};

enum class TcpState : std::uint8_t {
  SynSent,
  SynReceived,
  Established,
  FinWait,    // we sent FIN, waiting for peer's ACK/FIN
  CloseWait,  // peer sent FIN, we have not closed yet
  LastAck,    // peer finned, we sent our FIN
  Closed,
};

/// The stats fields are obs::Counter cells: they read and increment like
/// plain uint64s, and bind_metrics() publishes them in a MetricsRegistry
/// without copying.
struct TcpStackStats {
  obs::Counter syns_received;
  obs::Counter syn_cookies_sent;
  obs::Counter syn_cookies_accepted;
  obs::Counter syn_cookies_rejected;
  obs::Counter connections_established;
  obs::Counter connections_closed;
  obs::Counter connections_aborted;
  obs::Counter connections_reaped;
  obs::Counter connections_evicted;
  obs::Counter resets_sent;
  obs::Counter segments_in;
  obs::Counter segments_out;
};

class TcpStack {
 public:
  struct Callbacks {
    /// One whole DNS message arrived, its length removed. The view is
    /// valid only during the call.
    std::function<void(ConnId, BytesView)> on_message;
    /// Connection gone (normal close, abort or eviction), with the tag it
    /// carried; tag() of its name is already nullptr.
    std::function<void(ConnId, std::uint32_t tag)> on_closed;
  };

  struct Options {
    /// Serve incoming SYNs statelessly with SYN cookies.
    bool syn_cookies = false;
    std::uint64_t syn_cookie_secret = 0x5ce7a11db01dfaceULL;
    /// Hard cap on tracked connections. At the cap the least-recently
    /// active connection (in practice an embryonic or abandoned one) is
    /// reset to make room — the moral equivalent of an OS dropping from a
    /// full accept backlog.
    std::size_t max_connections = 65536;
    /// Reset a connection that no segment or owner call has touched for
    /// max_idle, or that has lived max_lifetime; zero turns a limit off.
    SimDuration max_idle{};
    SimDuration max_lifetime{};
  };

  using SendFn = std::function<void(net::Packet)>;
  using ClockFn = std::function<SimTime()>;

  TcpStack(SendFn send, ClockFn clock, Callbacks callbacks, Options options);

  /// Accepts connections to this local port.
  void listen(std::uint16_t port);

  /// Initiates a client connection; returns its name, {local, remote}.
  ConnId connect(net::SocketAddr local, net::SocketAddr remote);

  /// The owner's tag of a live connection (0 until the owner writes it),
  /// or nullptr. Leaves the table's LRU order and counters alone.
  [[nodiscard]] std::uint32_t* tag(const ConnId& id);

  /// Sends `message` behind its two-byte length as one PSH segment (DNS
  /// messages always fit one segment here). During the handshake the
  /// framed bytes queue on the connection and leave right after the ACK
  /// that establishes it. False for an unknown or closing connection, or
  /// a message too long for the length field.
  bool send_message(ConnId id, BytesView message);

  /// Graceful close (FIN).
  void close(ConnId id);
  /// Abortive close (RST to peer, state dropped).
  void abort(ConnId id);

  /// Feeds one TCP packet addressed to this stack. Returns false if the
  /// packet did not belong to any connection or listener (caller may then
  /// RST or ignore).
  bool handle_packet(const net::Packet& packet);

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }
  [[nodiscard]] const TcpStackStats& stats() const { return stats_; }

  /// Publishes every stats cell under "<prefix>.<field>" (e.g.
  /// "guard.tcp.syn_cookies_rejected").
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix);

  /// Optional drop-reason sink: rejected SYN-cookie ACKs count as
  /// kSynCookieFail, connections past a limit as kProxyTimeout.
  void set_drop_counters(obs::DropCounters* drops) { drops_ = drops; }

  /// Optional journey hook, fired at connection milestones ("tcp.syn",
  /// "tcp.established", "tcp.closed") with the CLIENT side's address —
  /// the remote peer for accepted connections, the local endpoint for
  /// ones we initiated — so the owner can mark the client's query
  /// journey. Stage strings are literals. `may_open` is false for
  /// "tcp.closed": a close only continues a journey (the query's journey
  /// may have ended before its connection), so the owner must not start
  /// one for it (JourneyTracker::mark's `may_open`).
  using JourneyFn = std::function<void(net::SocketAddr client,
                                       std::string_view stage,
                                       bool may_open)>;
  void set_journey_fn(JourneyFn fn) { journey_ = std::move(fn); }

  struct ConnectionInfo {
    ConnId id;
    TcpState state;
  };
  [[nodiscard]] std::vector<ConnectionInfo> connections() const;
  [[nodiscard]] std::optional<ConnectionInfo> connection(ConnId id) const;

 private:
  struct Connection {
    net::SocketAddr local;
    net::SocketAddr remote;
    TcpState state = TcpState::Closed;
    std::uint32_t snd_nxt = 0;  // next sequence number we will send
    std::uint32_t rcv_nxt = 0;  // next sequence number we expect
    bool client_role = false;  // we initiated via connect()
    std::uint32_t tag = 0;     // the owner's, through tag()
    /// The unfinished tail of an incoming message, length included; whole
    /// messages never wait here.
    Bytes rx;
    /// Framed messages not yet on the wire (sent during the handshake).
    Bytes tx;
  };

  struct ConnIdHash {
    std::size_t operator()(const ConnId& k) const {
      std::size_t h1 = std::hash<net::SocketAddr>{}(k.local);
      std::size_t h2 = std::hash<net::SocketAddr>{}(k.remote);
      return h1 ^ (h2 * 0x9e3779b97f4a7c15ULL);
    }
  };

  Connection* find(const ConnId& id);
  Connection& create(net::SocketAddr local, net::SocketAddr remote,
                     TcpState state);
  void destroy(Connection& c);
  /// Every close ends here, once `c` has left the table: marks the
  /// client's journey and hands the owner the connection's tag.
  void closed(const Connection& c);
  /// Sends the queued framed bytes as one PSH segment, if there are any.
  void flush(Connection& c);
  /// Hands every whole message in `data` to on_message and keeps an
  /// unfinished tail in c->rx. Stops when a callback destroys `c`.
  void deliver(Connection* c, BytesView data);
  void emit(net::SocketAddr from, net::SocketAddr to, net::TcpFlags flags,
            std::uint32_t seq, std::uint32_t ack, Bytes payload = {});
  void send_rst(const net::Packet& to_packet);
  std::uint32_t next_isn();

  SendFn send_;
  ClockFn clock_;
  Callbacks callbacks_;
  Options options_;
  SynCookieGenerator syn_cookies_;

  common::BoundedTable<ConnId, Connection, ConnIdHash> conns_;
  std::vector<std::uint16_t> listen_ports_;
  std::uint32_t isn_counter_ = 0x1000;
  TcpStackStats stats_;
  obs::DropCounters* drops_ = nullptr;
  JourneyFn journey_;
};

}  // namespace dnsguard::tcp
