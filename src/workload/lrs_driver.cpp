#include "workload/lrs_driver.h"

#include "common/pool.h"
#include "guard/cookie_engine.h"

namespace dnsguard::workload {

std::string drive_mode_name(DriveMode m) {
  switch (m) {
    case DriveMode::PlainUdp: return "plain-udp";
    case DriveMode::NsNameMiss: return "ns-name/miss";
    case DriveMode::NsNameHit: return "ns-name/hit";
    case DriveMode::FabricatedMiss: return "fabricated-ns-ip/miss";
    case DriveMode::FabricatedHit: return "fabricated-ns-ip/hit";
    case DriveMode::ModifiedMiss: return "modified-dns/miss";
    case DriveMode::ModifiedHit: return "modified-dns/hit";
    case DriveMode::TcpDirect: return "tcp/direct";
    case DriveMode::TcpWithRedirect: return "tcp/redirect";
  }
  return "?";
}

void LrsSimulatorNode::QidIndex::reset(std::size_t slots) {
  slots_.assign(std::max<std::size_t>(slots, 2), Slot{});
}

int LrsSimulatorNode::QidIndex::find(std::uint16_t qid) const {
  if (slots_.empty() || qid == 0) return -1;
  for (std::size_t i = home(qid); slots_[i].qid != 0; i = next(i)) {
    if (slots_[i].qid == qid) return slots_[i].worker;
  }
  return -1;
}

void LrsSimulatorNode::QidIndex::insert(std::uint16_t qid, int worker) {
  std::size_t i = home(qid);
  while (slots_[i].qid != 0) i = next(i);
  slots_[i] = Slot{qid, worker};
}

void LrsSimulatorNode::QidIndex::erase(std::uint16_t qid) {
  if (slots_.empty()) return;
  std::size_t hole = home(qid);
  while (slots_[hole].qid != qid) {
    if (slots_[hole].qid == 0) return;
    hole = next(hole);
  }
  // Backward shift: move each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, j], where it must stay.
  for (std::size_t j = next(hole); slots_[j].qid != 0; j = next(j)) {
    const std::size_t h = home(slots_[j].qid);
    const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (stays) continue;
    slots_[hole] = slots_[j];
    hole = j;
  }
  slots_[hole] = Slot{};
}

LrsSimulatorNode::LrsSimulatorNode(sim::Simulator& sim, std::string name,
                                   Config config)
    : sim::Node(sim, std::move(name), /*rx_queue_capacity=*/16384),
      config_(std::move(config)),
      rng_(config_.seed) {
  set_profile_stage(obs::prof::Stage::kDriverService);
  qname_ = dns::DomainName::parse(config_.qname).value_or(dns::DomainName{});
  zone_ = dns::DomainName::parse(config_.zone).value_or(dns::DomainName{});
  tcp_ = std::make_unique<tcp::TcpStack>(
      [this](net::Packet p) { send(std::move(p)); },
      [this] { return now(); },
      tcp::TcpStack::Callbacks{
          .on_message = [this](tcp::ConnId id,
                               BytesView m) { on_tcp_message(id, m); },
          .on_closed = {},
      },
      tcp::TcpStack::Options{});
  stats_.bind(this->sim().metrics(), "driver");
  // TCP handshake milestones ride under our client-side endpoint; the
  // worker's journey aliases that key in start_tcp().
  tcp_->set_journey_fn([this](net::SocketAddr client, std::string_view stage,
                              bool may_open) {
    this->sim().journeys().mark({client.ip.value(), client.port, 0}, stage,
                                now(), may_open);
  });
}

void LrsSimulatorNode::journey_touch(Worker& worker, std::uint16_t qid,
                                     std::uint32_t qhash) {
  obs::JourneyTracker& jt = sim().journeys();
  if (!jt.enabled()) return;
  obs::JourneyKey key{config_.address.value(), qid, qhash};
  if (!worker.jkey_open) {
    worker.jkey = key;
    worker.jkey_open = true;
    jt.mark(key, "drv.send", now());
  } else {
    jt.alias(worker.jkey, key);
    jt.mark(worker.jkey, "drv.exchange", now());
  }
}

void LrsSimulatorNode::journey_end(Worker& worker, std::string_view stage,
                                   bool ok, bool may_open) {
  if (!worker.jkey_open) return;
  worker.jkey_open = false;
  if (!sim().journeys().enabled()) return;
  sim().journeys().end(worker.jkey, stage, now(), ok, may_open);
}

void LrsSimulatorNode::start() {
  if (running_) return;
  running_ = true;
  workers_.assign(static_cast<std::size_t>(config_.concurrency), Worker{});
  qid_to_worker_.reset(2 * workers_.size());
  // Stagger worker start-up (~10 us apart) so thousands of workers don't
  // fire one synchronized burst that overflows queues before steady state
  // — the paper's simulator likewise "first starts up the specified
  // number of TCP connections".
  for (int w = 0; w < config_.concurrency; ++w) {
    schedule_in(microseconds(10 * w), [this, w] {
      if (running_) begin_request(w);
    });
  }
}

void LrsSimulatorNode::stop() {
  running_ = false;
  qid_to_worker_.clear();
}

void LrsSimulatorNode::begin_request(int w) {
  if (!running_) return;
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  worker.request_started = now();

  switch (config_.mode) {
    case DriveMode::PlainUdp: {
      worker.stage = 0;
      send_exchange(w, qname_, config_.target);
      return;
    }
    case DriveMode::NsNameMiss:
    case DriveMode::FabricatedMiss: {
      worker.stage = 0;
      send_exchange(w, qname_, config_.target);
      return;
    }
    case DriveMode::NsNameHit: {
      if (!worker.primed) {
        worker.stage = 0;
        send_exchange(w, qname_, config_.target);
      } else {
        worker.stage = 1;
        send_exchange(w, worker.fabricated_name, config_.target);
      }
      return;
    }
    case DriveMode::FabricatedHit: {
      if (!worker.primed) {
        worker.stage = 0;
        send_exchange(w, qname_, config_.target);
      } else {
        worker.stage = 2;
        send_exchange(w, qname_, {worker.cookie2_address, net::kDnsPort});
      }
      return;
    }
    case DriveMode::ModifiedMiss:
    case DriveMode::ModifiedHit: {
      if (config_.mode == DriveMode::ModifiedHit && worker.primed) {
        worker.stage = 1;
        send_exchange(w, qname_, config_.target, &worker.cookie);
      } else {
        worker.stage = 0;
        const crypto::Cookie zero{};  // requests a cookie
        send_exchange(w, qname_, config_.target, &zero);
      }
      return;
    }
    case DriveMode::TcpDirect: {
      worker.stage = 1;
      start_tcp(w);
      return;
    }
    case DriveMode::TcpWithRedirect: {
      worker.stage = 0;
      send_exchange(w, qname_, config_.target);
      return;
    }
  }
}

std::uint16_t LrsSimulatorNode::claim_qid(int w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  std::uint16_t qid;
  do {
    qid = next_qid_++;
  } while (qid == 0 || qid_to_worker_.find(qid) >= 0);
  // Forget the previous exchange's id, if any.
  if (worker.pending_qid != 0) qid_to_worker_.erase(worker.pending_qid);
  worker.pending_qid = qid;
  qid_to_worker_.insert(qid, w);
  return qid;
}

void LrsSimulatorNode::send_exchange(int w, const dns::DomainName& qname,
                                     net::SocketAddr to,
                                     const crypto::Cookie* txt_cookie) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  const std::uint16_t qid = claim_qid(w);
  tx_.set_query(qid, qname, dns::RrType::A, /*recursion_desired=*/false);
  if (txt_cookie != nullptr) {
    guard::CookieEngine::attach_txt_cookie(tx_, *txt_cookie, 0);
  }
  journey_touch(worker, qid, qname.hash32());

  stats_.exchanges_sent++;
  send(net::Packet::make_udp({config_.address, 32000}, to,
                             tx_.encode_pooled()));
  arm_timeout(w);
}

void LrsSimulatorNode::arm_timeout(int w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  worker.deadline = now() + config_.timeout;
  worker.armed = true;
  if (!worker.timer_pending) schedule_timer(w);
}

void LrsSimulatorNode::schedule_timer(int w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  worker.timer_pending = true;
  schedule_in(worker.deadline - now(), [this, w] { on_timer(w); });
}

void LrsSimulatorNode::on_timer(int w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  worker.timer_pending = false;
  if (!running_ || !worker.armed) return;
  if (now() < worker.deadline) {
    // A later exchange moved the deadline while this event waited.
    schedule_timer(w);
    return;
  }
  worker.armed = false;
  stats_.timeouts++;
  // The guard may have ended this journey already, at its drop.
  journey_end(worker, "drv.timeout", /*ok=*/false, /*may_open=*/false);
  if (worker.pending_qid != 0) {
    qid_to_worker_.erase(worker.pending_qid);
    worker.pending_qid = 0;
  }
  if (worker.conn != tcp::ConnId{}) {
    tcp_->abort(worker.conn);
    worker.conn = {};
  }
  // A timed-out exchange may mean the learned cookie state went stale
  // (e.g. the guard rotated keys twice): re-learn from scratch.
  worker.primed = false;
  // §IV.D: "sends in the next request if it receives a response or the
  // timer expires."
  if (config_.think_time.ns > 0) {
    schedule_in(config_.think_time, [this, w] {
      if (running_) begin_request(w);
    });
  } else {
    begin_request(w);
  }
}

void LrsSimulatorNode::complete(int w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  worker.armed = false;
  if (worker.pending_qid != 0) {
    qid_to_worker_.erase(worker.pending_qid);
    worker.pending_qid = 0;
  }
  bool was_priming = false;
  if ((config_.mode == DriveMode::NsNameHit ||
       config_.mode == DriveMode::FabricatedHit ||
       config_.mode == DriveMode::ModifiedHit) &&
      !worker.primed) {
    worker.primed = true;
    was_priming = true;  // priming exchange: not counted as steady state
  }
  journey_end(worker, "drv.complete", /*ok=*/true, /*may_open=*/true);
  if (!was_priming) {
    stats_.completed++;
    latencies_.add((now() - worker.request_started).millis());
  }
  if (config_.think_time.ns > 0 && !was_priming) {
    schedule_in(config_.think_time, [this, w] {
      if (running_) begin_request(w);
    });
  } else {
    begin_request(w);
  }
}

void LrsSimulatorNode::restart(int w) {
  // A response that does not fit the expected dance (e.g. the guard just
  // switched between pass-through and active): back off briefly instead
  // of busy-looping at wire speed.
  stats_.unexpected++;
  journey_end(workers_[static_cast<std::size_t>(w)], "drv.restart",
              /*ok=*/false, /*may_open=*/true);
  SimDuration backoff = config_.think_time.ns > 0 ? config_.think_time
                                                  : milliseconds(1);
  schedule_in(backoff, [this, w] {
    if (running_) begin_request(w);
  });
}

void LrsSimulatorNode::advance(int w, const dns::Message& response) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];

  switch (config_.mode) {
    case DriveMode::PlainUdp:
      complete(w);
      return;

    case DriveMode::NsNameMiss:
    case DriveMode::NsNameHit:
    case DriveMode::FabricatedMiss:
    case DriveMode::FabricatedHit: {
      if (worker.stage == 0) {
        // Expect the fabricated referral (msg 2). A direct full answer
        // means no guard is active (pass-through below the activation
        // threshold): the request is simply served.
        if (!response.is_referral()) {
          if (!response.answers.empty()) {
            complete(w);
            return;
          }
          restart(w);
          return;
        }
        const auto& ns =
            std::get<dns::NsRdata>(response.authority.front().rdata);
        worker.fabricated_name = ns.nsdname;
        worker.stage = 1;
        send_exchange(w, worker.fabricated_name, config_.target);
        return;
      }
      const bool fabricated_ip = config_.mode == DriveMode::FabricatedMiss ||
                                 config_.mode == DriveMode::FabricatedHit;
      if (fabricated_ip && worker.stage == 1) {
        // msg 6: COOKIE2 address.
        const dns::ARdata* a = nullptr;
        for (const auto& rr : response.answers) {
          if (rr.type == dns::RrType::A) {
            a = &std::get<dns::ARdata>(rr.rdata);
            break;
          }
        }
        if (a == nullptr) {
          worker.primed = false;
          restart(w);
          return;
        }
        worker.cookie2_address = a->address;
        worker.stage = 2;
        send_exchange(w, qname_, {worker.cookie2_address, net::kDnsPort});
        return;
      }
      // The real answer: msg 6 of the NS-name dance, msg 10 of the
      // fabricated-IP one.
      if (response.answers.empty()) {
        worker.primed = false;  // cookie may have rotated; re-learn
        restart(w);
        return;
      }
      complete(w);
      return;
    }

    case DriveMode::ModifiedMiss:
    case DriveMode::ModifiedHit: {
      if (worker.stage == 0) {
        // msg 3: the cookie reply.
        auto cookie = guard::CookieEngine::extract_txt_cookie(response);
        if (!cookie || guard::CookieEngine::is_zero_cookie(*cookie)) {
          restart(w);
          return;
        }
        worker.cookie = *cookie;
        worker.stage = 1;
        send_exchange(w, qname_, config_.target, &worker.cookie);
        return;
      }
      // Stage 1: the real answer.
      if (response.answers.empty() &&
          response.header.rcode != dns::Rcode::NoError) {
        worker.primed = false;
        restart(w);
        return;
      }
      complete(w);
      return;
    }

    case DriveMode::TcpWithRedirect: {
      if (worker.stage == 0) {
        if (!response.header.tc) {
          // No redirect: the server (or a pass-through guard) answered
          // directly over UDP — the request is served.
          complete(w);
          return;
        }
        worker.stage = 1;
        start_tcp(w);
        return;
      }
      complete(w);
      return;
    }

    case DriveMode::TcpDirect:
      complete(w);
      return;
  }
}

void LrsSimulatorNode::start_tcp(int w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  std::uint16_t port = next_port_++;
  if (next_port_ < 30000) next_port_ = 30000;

  const std::uint16_t qid = claim_qid(w);
  stats_.exchanges_sent++;
  journey_touch(worker, qid, qname_.hash32());
  if (worker.jkey_open && sim().journeys().enabled()) {
    // Fold the TCP stack's per-connection marks into this journey.
    sim().journeys().alias(worker.jkey,
                           {config_.address.value(), port, 0});
  }
  worker.conn = tcp_->connect({config_.address, port}, config_.target);
  *tcp_->tag(worker.conn) = static_cast<std::uint32_t>(w);
  tx_.set_query(qid, qname_, dns::RrType::A, /*recursion_desired=*/false);
  Bytes wire = tx_.encode_pooled();
  tcp_->send_message(worker.conn, BytesView(wire));
  BufferPool::local().release(std::move(wire));
  // The stack does not retransmit: a lost SYN, query or reply, or a SYN
  // the guard throttles, ends in this timeout.
  arm_timeout(w);
}

void LrsSimulatorNode::on_tcp_message(tcp::ConnId conn, BytesView message) {
  const auto w = static_cast<int>(*tcp_->tag(conn));
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  // One response per connection: any later message on it is ignored.
  if (worker.conn != conn) return;
  if (!dns::Message::decode_into(message, rx_) || !rx_.header.qr) return;
  tcp_->close(conn);
  worker.conn = {};
  advance(w, rx_);
}

SimDuration LrsSimulatorNode::process(const net::Packet& packet) {
  if (packet.is_tcp()) {
    tcp_->handle_packet(packet);
    return config_.per_packet_cost;
  }
  if (!dns::Message::decode_into(BytesView(packet.payload), rx_) ||
      !rx_.header.qr) {
    return config_.per_packet_cost;
  }
  const int w = qid_to_worker_.find(rx_.header.id);
  if (w < 0) {
    stats_.unexpected++;
    return config_.per_packet_cost;
  }
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  if (worker.pending_qid != rx_.header.id) {
    stats_.unexpected++;
    return config_.per_packet_cost;
  }
  // This exchange is resolved; disarm its timer.
  worker.armed = false;
  qid_to_worker_.erase(rx_.header.id);
  worker.pending_qid = 0;
  advance(w, rx_);
  return config_.per_packet_cost;
}

}  // namespace dnsguard::workload
