#include "tcp/tcp_stack.h"

#include <algorithm>
#include <utility>

#include "common/pool.h"

namespace dnsguard::tcp {
namespace {

/// RFC 1035 §4.2.2: on a TCP stream each DNS message follows its length,
/// two bytes big-endian.
constexpr std::size_t kLengthBytes = 2;
constexpr std::size_t kMaxMessage = 0xffff;
/// Connection-table slots checked for expiry per segment handled.
constexpr std::size_t kReapPerSegment = 8;

std::size_t message_length(const std::uint8_t* prefix) {
  return std::size_t{prefix[0]} << 8 | prefix[1];
}

void append_framed(Bytes& out, BytesView message) {
  out.reserve(out.size() + kLengthBytes + message.size());
  out.push_back(static_cast<std::uint8_t>(message.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
}

}  // namespace

TcpStack::TcpStack(SendFn send, ClockFn clock, Callbacks callbacks,
                   Options options)
    : send_(std::move(send)),
      clock_(std::move(clock)),
      callbacks_(std::move(callbacks)),
      options_(options),
      syn_cookies_(options.syn_cookie_secret),
      conns_({.capacity = options.max_connections,
              .ttl = options.max_lifetime,
              .idle_timeout = options.max_idle}) {
  conns_.set_evict_callback([this](const ConnId&, Connection& c,
                                   common::EvictReason reason) {
    // Reset the victim so its peer learns immediately, and tell the owner
    // it is gone.
    stats_.resets_sent++;
    emit(c.local, c.remote, net::TcpFlags{.rst = true}, c.snd_nxt,
         c.rcv_nxt);
    if (reason == common::EvictReason::kCapacity) {
      // Table full: the least-recently active connection made room.
      stats_.connections_evicted++;
      if (drops_ != nullptr) drops_->count(obs::DropReason::kStateTableFull);
    } else {
      // Past the owner's idle or lifetime limit.
      stats_.connections_aborted++;
      stats_.connections_reaped++;
      if (drops_ != nullptr) drops_->count(obs::DropReason::kProxyTimeout);
    }
    closed(c);
  });
}

void TcpStack::listen(std::uint16_t port) { listen_ports_.push_back(port); }

void TcpStack::bind_metrics(obs::MetricsRegistry& registry,
                            std::string_view prefix) {
  std::string p(prefix);
  registry.attach_counter(p + ".syns_received", stats_.syns_received);
  registry.attach_counter(p + ".syn_cookies_sent", stats_.syn_cookies_sent);
  registry.attach_counter(p + ".syn_cookies_accepted",
                          stats_.syn_cookies_accepted);
  registry.attach_counter(p + ".syn_cookies_rejected",
                          stats_.syn_cookies_rejected);
  registry.attach_counter(p + ".connections_established",
                          stats_.connections_established);
  registry.attach_counter(p + ".connections_closed",
                          stats_.connections_closed);
  registry.attach_counter(p + ".connections_aborted",
                          stats_.connections_aborted);
  registry.attach_counter(p + ".connections_reaped",
                          stats_.connections_reaped);
  registry.attach_counter(p + ".connections_evicted",
                          stats_.connections_evicted);
  registry.attach_counter(p + ".resets_sent", stats_.resets_sent);
  registry.attach_counter(p + ".segments_in", stats_.segments_in);
  registry.attach_counter(p + ".segments_out", stats_.segments_out);
  conns_.bind_metrics(registry, p + ".table");
}

std::uint32_t TcpStack::next_isn() {
  isn_counter_ += 64013;  // arbitrary odd stride: distinct, non-sequential
  return isn_counter_;
}

TcpStack::Connection* TcpStack::find(const ConnId& id) {
  return conns_.find(id, clock_());
}

std::uint32_t* TcpStack::tag(const ConnId& id) {
  Connection* c = conns_.occupant(id);
  return c == nullptr ? nullptr : &c->tag;
}

TcpStack::Connection& TcpStack::create(net::SocketAddr local,
                                       net::SocketAddr remote,
                                       TcpState state) {
  const ConnId id{local, remote};
  if (Connection* stale = find(id)) {
    // A fresh handshake on a 4-tuple we already track supersedes the old
    // connection, which closes like any other.
    stats_.connections_aborted++;
    destroy(*stale);
  }
  auto r = conns_.try_emplace(id, clock_());
  Connection& c = *r.value;  // LRU-evict mode: the insert always lands
  c.local = local;
  c.remote = remote;
  c.state = state;
  return c;
}

void TcpStack::destroy(Connection& c) {
  const Connection gone = std::move(c);
  conns_.erase({gone.local, gone.remote});  // invalidates c
  closed(gone);
}

void TcpStack::closed(const Connection& c) {
  if (journey_) {
    journey_(c.client_role ? c.local : c.remote, "tcp.closed",
             /*may_open=*/false);
  }
  if (callbacks_.on_closed) callbacks_.on_closed({c.local, c.remote}, c.tag);
}

void TcpStack::emit(net::SocketAddr from, net::SocketAddr to,
                    net::TcpFlags flags, std::uint32_t seq, std::uint32_t ack,
                    Bytes payload) {
  stats_.segments_out++;
  send_(net::Packet::make_tcp(from, to, flags, seq, ack, std::move(payload)));
}

void TcpStack::send_rst(const net::Packet& to_packet) {
  stats_.resets_sent++;
  emit(to_packet.dst(), to_packet.src(), net::TcpFlags{.rst = true},
       to_packet.ack, to_packet.seq + 1);
}

ConnId TcpStack::connect(net::SocketAddr local, net::SocketAddr remote) {
  Connection& c = create(local, remote, TcpState::SynSent);
  c.client_role = true;
  if (journey_) journey_(local, "tcp.syn", true);
  c.snd_nxt = next_isn();
  emit(local, remote, net::TcpFlags{.syn = true}, c.snd_nxt, 0);
  c.snd_nxt += 1;  // SYN consumes one sequence number
  return {local, remote};
}

bool TcpStack::send_message(ConnId id, BytesView message) {
  if (message.size() > kMaxMessage) return false;
  Connection* c = find(id);
  if (c == nullptr) return false;
  const bool handshake =
      c->state == TcpState::SynSent || c->state == TcpState::SynReceived;
  if (!handshake && c->state != TcpState::Established) return false;
  // Payloads come from the buffer pool, which the receiving node refills.
  if (c->tx.empty()) c->tx = BufferPool::local().acquire();
  append_framed(c->tx, message);
  if (!handshake) flush(*c);
  return true;
}

void TcpStack::flush(Connection& c) {
  if (c.tx.empty()) return;
  const auto n = static_cast<std::uint32_t>(c.tx.size());
  emit(c.local, c.remote, net::TcpFlags{.psh = true, .ack = true}, c.snd_nxt,
       c.rcv_nxt, std::exchange(c.tx, {}));
  c.snd_nxt += n;
}

void TcpStack::deliver(Connection* c, BytesView data) {
  const ConnId id{c->local, c->remote};
  Bytes joined;
  if (!c->rx.empty()) {
    // A message began in an earlier segment: continue it with this one.
    joined = std::exchange(c->rx, {});
    joined.insert(joined.end(), data.begin(), data.end());
    data = joined;
  }
  while (data.size() >= kLengthBytes &&
         data.size() - kLengthBytes >= message_length(data.data())) {
    const BytesView message =
        data.subspan(kLengthBytes, message_length(data.data()));
    data = data.subspan(kLengthBytes + message.size());
    if (callbacks_.on_message) callbacks_.on_message(id, message);
    if (data.empty()) return;
    // The callback may have destroyed the connection or moved the table's
    // storage. occupant() leaves LRU order and the table's counters alone.
    c = conns_.occupant(id);
    if (c == nullptr) return;
  }
  c->rx.assign(data.begin(), data.end());  // the unfinished message, if any
}

void TcpStack::close(ConnId id) {
  Connection* c = find(id);
  if (c == nullptr) return;
  if (c->state == TcpState::Established) {
    emit(c->local, c->remote, net::TcpFlags{.fin = true, .ack = true},
         c->snd_nxt, c->rcv_nxt);
    c->snd_nxt += 1;
    c->state = TcpState::FinWait;
  } else if (c->state == TcpState::CloseWait) {
    emit(c->local, c->remote, net::TcpFlags{.fin = true, .ack = true},
         c->snd_nxt, c->rcv_nxt);
    c->snd_nxt += 1;
    c->state = TcpState::LastAck;
  }
}

void TcpStack::abort(ConnId id) {
  Connection* c = find(id);
  if (c == nullptr) return;
  stats_.resets_sent++;
  emit(c->local, c->remote, net::TcpFlags{.rst = true}, c->snd_nxt,
       c->rcv_nxt);
  stats_.connections_aborted++;
  destroy(*c);
}

bool TcpStack::handle_packet(const net::Packet& packet) {
  if (!packet.is_tcp()) return false;
  stats_.segments_in++;
  const SimTime now = clock_();
  if (options_.max_idle.ns > 0 || options_.max_lifetime.ns > 0) {
    conns_.reap(now, kReapPerSegment);
  }
  const ConnId id{packet.dst(), packet.src()};
  Connection* c = find(id);

  // --- no existing connection state ---------------------------------------
  if (c == nullptr) {
    bool listening = std::find(listen_ports_.begin(), listen_ports_.end(),
                               packet.dst_port) != listen_ports_.end();
    if (packet.flags.syn && !packet.flags.ack) {
      if (!listening) {
        if (drops_ != nullptr) drops_->count(obs::DropReason::kStraySegment);
        send_rst(packet);
        return false;
      }
      stats_.syns_received++;
      if (journey_) journey_(packet.src(), "tcp.syn", true);
      if (options_.syn_cookies) {
        // Stateless: encode the cookie in our ISN, keep no state.
        std::uint32_t isn =
            syn_cookies_.make(packet.src(), packet.dst(), packet.seq, now);
        stats_.syn_cookies_sent++;
        emit(packet.dst(), packet.src(),
             net::TcpFlags{.syn = true, .ack = true}, isn, packet.seq + 1);
        return true;
      }
      Connection& nc = create(packet.dst(), packet.src(),
                              TcpState::SynReceived);
      nc.rcv_nxt = packet.seq + 1;
      nc.snd_nxt = next_isn();
      emit(nc.local, nc.remote, net::TcpFlags{.syn = true, .ack = true},
           nc.snd_nxt, nc.rcv_nxt);
      nc.snd_nxt += 1;
      return true;
    }
    if (packet.flags.ack && !packet.flags.syn && !packet.flags.rst &&
        options_.syn_cookies && listening) {
      // Possibly the third packet of a cookie handshake: ack-1 must be a
      // valid cookie for (src, dst, client_isn = seq-1).
      std::uint32_t acked_isn = packet.ack - 1;
      if (!syn_cookies_.validate(packet.src(), packet.dst(), packet.seq - 1,
                                 acked_isn, now)) {
        stats_.syn_cookies_rejected++;
        if (drops_ != nullptr) drops_->count(obs::DropReason::kSynCookieFail);
        send_rst(packet);
        return false;
      }
      stats_.syn_cookies_accepted++;
      c = &create(packet.dst(), packet.src(), TcpState::Established);
      c->rcv_nxt = packet.seq;
      c->snd_nxt = packet.ack;
      stats_.connections_established++;
      if (journey_) journey_(c->remote, "tcp.established", true);
      // The ACK may carry data already (common for eager clients); the
      // established path below delivers it.
    } else {
      if (drops_ != nullptr) drops_->count(obs::DropReason::kStraySegment);
      if (!packet.flags.rst) send_rst(packet);
      return false;
    }
  }

  // --- existing connection --------------------------------------------------
  if (packet.flags.rst) {
    stats_.connections_aborted++;
    destroy(*c);
    return true;
  }

  switch (c->state) {
    case TcpState::SynSent: {
      if (packet.flags.syn && packet.flags.ack && packet.ack == c->snd_nxt) {
        c->rcv_nxt = packet.seq + 1;
        c->state = TcpState::Established;
        emit(c->local, c->remote, net::TcpFlags{.ack = true}, c->snd_nxt,
             c->rcv_nxt);
        stats_.connections_established++;
        if (journey_) journey_(c->local, "tcp.established", true);
        flush(*c);
        return true;
      }
      return true;  // stray segment during handshake: ignore
    }
    case TcpState::SynReceived: {
      if (packet.flags.ack && packet.ack == c->snd_nxt) {
        c->state = TcpState::Established;
        stats_.connections_established++;
        if (journey_) journey_(c->remote, "tcp.established", true);
        flush(*c);
        // fall through into data handling below for piggybacked payloads
      } else {
        return true;
      }
      [[fallthrough]];
    }
    case TcpState::Established:
    case TcpState::FinWait:
    case TcpState::CloseWait: {
      if (!packet.payload.empty()) {
        if (packet.seq == c->rcv_nxt) {
          c->rcv_nxt += static_cast<std::uint32_t>(packet.payload.size());
          emit(c->local, c->remote, net::TcpFlags{.ack = true}, c->snd_nxt,
               c->rcv_nxt);
          deliver(c, BytesView(packet.payload));
          // Callbacks may have closed/aborted the connection.
          c = find(id);
          if (c == nullptr) return true;
        } else {
          // Out-of-order/duplicate: re-ACK what we expect.
          emit(c->local, c->remote, net::TcpFlags{.ack = true}, c->snd_nxt,
               c->rcv_nxt);
          return true;
        }
      }
      if (packet.flags.fin) {
        c->rcv_nxt += 1;
        emit(c->local, c->remote, net::TcpFlags{.ack = true}, c->snd_nxt,
             c->rcv_nxt);
        if (c->state == TcpState::FinWait) {
          // Both directions closed.
          stats_.connections_closed++;
          destroy(*c);
        } else {
          c->state = TcpState::CloseWait;
        }
      }
      return true;
    }
    case TcpState::LastAck: {
      if (packet.flags.ack && packet.ack == c->snd_nxt) {
        stats_.connections_closed++;
        destroy(*c);
      }
      return true;
    }
    case TcpState::Closed:
      return true;
  }
  return true;
}

std::vector<TcpStack::ConnectionInfo> TcpStack::connections() const {
  std::vector<ConnectionInfo> out;
  out.reserve(conns_.size());
  conns_.for_each([&](const ConnId& id, const Connection& c) {
    out.push_back(ConnectionInfo{id, c.state});
  });
  return out;
}

std::optional<TcpStack::ConnectionInfo> TcpStack::connection(
    ConnId id) const {
  const Connection* c = conns_.peek(id, clock_());
  if (c == nullptr) return std::nullopt;
  return ConnectionInfo{id, c->state};
}

}  // namespace dnsguard::tcp
