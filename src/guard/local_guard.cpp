#include "guard/local_guard.h"

namespace dnsguard::guard {
namespace {

obs::JourneyKey jkey_of(std::uint32_t lrs_ip, const dns::Message& m) {
  return {lrs_ip, m.header.id,
          m.question() != nullptr ? m.question()->qname.hash32() : 0};
}

/// Hard caps on the per-ANS maps ("1 cookie per ANS", Table I — but the
/// ANS address is remote-influenced, so the maps are bounded).
constexpr std::size_t kMaxCookieCache = 4096;
constexpr std::size_t kMaxNotCapable = 4096;
/// Distinct ANSs with held queries; the LRU bucket's queries are flushed
/// cookie-less when the cap is hit.
constexpr std::size_t kMaxHeldAnses = 1024;
/// Per-packet CPU cost of the module.
constexpr SimDuration kPacketCost = nanoseconds(700);

}  // namespace

LocalGuardNode::LocalGuardNode(sim::Simulator& sim, std::string name,
                               Config config, sim::Node* lrs)
    : sim::Node(sim, std::move(name)),
      config_(config),
      lrs_(lrs),
      cookies_({.capacity = kMaxCookieCache}),
      not_capable_until_({.capacity = kMaxNotCapable}),
      held_({.capacity = kMaxHeldAnses}) {
  set_profile_stage(obs::prof::Stage::kGuardService);
  stats_.bind(this->sim().metrics(), "local_guard");
  drops_.bind(this->sim().metrics(), "local_guard");
  cookies_.bind_metrics(this->sim().metrics(), "local_guard.cookies");
  not_capable_until_.bind_metrics(this->sim().metrics(),
                                  "local_guard.not_capable");
  held_.bind_metrics(this->sim().metrics(), "local_guard.held");
  // If the held-bucket table has to evict (too many distinct ANSs probed
  // at once), the victim's queries must still reach their ANS — release
  // them cookie-less rather than drop them.
  held_.set_evict_callback([this](const net::Ipv4Address&, HeldBucket& bucket,
                                  common::EvictReason) {
    flush_bucket(std::move(bucket), nullptr);
  });
}

void LocalGuardNode::install() {
  sim().add_host_route(config_.lrs_address, this);
  sim().set_gateway(lrs_, this);
}

bool LocalGuardNode::has_cookie_for(net::Ipv4Address ans) const {
  return cookies_.peek(ans, sim().now()) != nullptr;
}

SimDuration LocalGuardNode::process(const net::Packet& packet) {
  cost_ = kPacketCost;
  // Amortized reaping: a few slots per packet.
  cookies_.reap(now(), 16);
  not_capable_until_.reap(now(), 16);
  if (!packet.is_udp()) {
    // TCP traffic (truncation fallback) passes through transparently.
    if (packet.src_ip == config_.lrs_address) {
      send(packet);
    } else {
      send_direct(lrs_, packet);
    }
    return cost_ + kPacketCost;
  }

  auto m = dns::Message::decode(BytesView(packet.payload));
  if (!m) {
    // Undecodable: forward unchanged in whichever direction it flows.
    if (packet.src_ip == config_.lrs_address) {
      send(packet);
    } else {
      send_direct(lrs_, packet);
    }
    return cost_ + kPacketCost;
  }

  if (packet.src_ip == config_.lrs_address && !m->header.qr) {
    handle_outbound(packet, std::move(*m));
  } else {
    handle_inbound(packet, std::move(*m));
  }
  return cost_;
}

void LocalGuardNode::handle_outbound(const net::Packet& packet,
                                     dns::Message query) {
  net::Ipv4Address ans = packet.dst_ip;

  obs::JourneyTracker& jt = sim().journeys();

  if (const crypto::Cookie* cached = cookies_.find(ans, now())) {
    // msg 4: attach the cached cookie.
    CookieEngine::strip_txt_cookie(query);  // defensive: never double-add
    CookieEngine::attach_txt_cookie(query, *cached, 0);
    stats_.queries_with_cookie++;
    if (jt.enabled()) {
      jt.mark(jkey_of(packet.src_ip.value(), query), "lguard.attach", now());
    }
    net::Packet out = packet;
    query.encode_to(out.payload);
    cost_ = cost_ + kPacketCost;
    send(std::move(out));
    return;
  }

  // A recently-probed ANS without a remote guard is served plainly.
  if (not_capable_until_.find(ans, now()) != nullptr) {
    cost_ = cost_ + kPacketCost;
    send(packet);
    return;
  }

  // Hold the original and (at most once per window) request a cookie.
  HeldBucket& bucket = *held_.try_emplace(ans, now()).value;
  if (bucket.queries.size() < config_.max_held_per_ans) {
    bucket.queries.push_back(packet);
    stats_.queries_held++;
    if (jt.enabled()) {
      jt.mark(jkey_of(packet.src_ip.value(), query), "lguard.hold", now());
    }
  } else {
    // The bucket is full and its cookie request is already out: the query
    // is neither held nor forwarded.
    drops_.count(obs::DropReason::kStateTableFull);
    trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kStateTableFull);
    if (jt.enabled()) {
      jt.end(jkey_of(packet.src_ip.value(), query), "lguard.drop", now(),
             /*ok=*/false);
    }
  }
  if (!bucket.request_outstanding) {
    bucket.request_outstanding = true;
    const std::uint64_t gen = bucket.generation = ++last_generation_;
    // msg 2: same query with an all-zero cookie — same size as msg 4, so
    // the exchange amplifies nothing.
    dns::Message req = query;
    CookieEngine::strip_txt_cookie(req);
    CookieEngine::attach_txt_cookie(req, crypto::Cookie{}, 0);
    stats_.cookie_requests++;
    if (jt.enabled()) {
      jt.mark(jkey_of(packet.src_ip.value(), req), "lguard.cookie_req",
              now());
    }
    net::Packet out = packet;
    req.encode_to(out.payload);
    cost_ = cost_ + kPacketCost;
    send(std::move(out));
    schedule_in(config_.cookie_request_timeout,
                [this, ans, gen] { on_cookie_timeout(ans, gen); });
  }
}

void LocalGuardNode::handle_inbound(const net::Packet& packet,
                                    dns::Message response) {
  if (!response.header.qr) {
    // A query addressed to the LRS (stub client traffic): pass through.
    cost_ = cost_ + kPacketCost;
    send_direct(lrs_, packet);
    return;
  }

  auto cookie = CookieEngine::extract_txt_cookie(response);
  if (cookie && !CookieEngine::is_zero_cookie(*cookie)) {
    // Cache by the responding server's address; TTL rides in the TXT TTL.
    std::uint32_t ttl = 0;
    for (const auto& rr : response.additional) {
      if (rr.type == dns::RrType::TXT && rr.name.is_root()) ttl = rr.ttl;
    }
    if (ttl == 0) ttl = 60;
    auto r = cookies_.try_emplace(packet.src_ip, now(), *cookie);
    const crypto::Cookie* cached = nullptr;
    if (r.value != nullptr) {
      if (!r.inserted) *r.value = *cookie;
      cookies_.set_expiry(packet.src_ip, now() + seconds(ttl));
      cached = r.value;
    }
    stats_.cookies_cached++;

    if (response.answers.empty() && response.authority.empty()) {
      // msg 3: pure cookie reply — consume it and release held queries.
      release_held(packet.src_ip, cached);
      return;
    }
    // A real answer carrying a refreshed cookie: strip and deliver; any
    // queries still held for this ANS can go out with the fresh cookie.
    release_held(packet.src_ip, cached);
    CookieEngine::strip_txt_cookie(response);
    net::Packet out = packet;
    response.encode_to(out.payload);
    stats_.responses_delivered++;
    if (sim().journeys().enabled()) {
      sim().journeys().mark(jkey_of(packet.dst_ip.value(), response),
                            "lguard.deliver", now());
    }
    cost_ = cost_ + kPacketCost;
    send_direct(lrs_, std::move(out));
    return;
  }

  // A cookie-less response. If we were waiting on a cookie from this
  // server, it has no remote guard: this response answers the probe query
  // itself (msg 2 was the original query + zero cookie, same id), so
  // deliver it, release anything else held plainly, and remember the
  // server is not cookie-capable.
  if (HeldBucket* bucket = held_.find(packet.src_ip, now())) {
    SimTime until = now() + config_.not_capable_ttl;
    auto r = not_capable_until_.try_emplace(packet.src_ip, now(), until);
    if (r.value != nullptr) {
      if (!r.inserted) *r.value = until;
      not_capable_until_.set_expiry(packet.src_ip, until);
    }
    // Drop the probe's duplicate from the held set: the LRS is getting
    // its answer right now.
    std::erase_if(bucket->queries, [&response](const net::Packet& p) {
      auto m = dns::Message::decode(BytesView(p.payload));
      return m && m->header.id == response.header.id;
    });
    release_held(packet.src_ip, nullptr);
  }

  stats_.responses_delivered++;
  if (sim().journeys().enabled()) {
    sim().journeys().mark(jkey_of(packet.dst_ip.value(), response),
                          "lguard.deliver", now());
  }
  cost_ = cost_ + kPacketCost;
  send_direct(lrs_, packet);
}

void LocalGuardNode::release_held(net::Ipv4Address ans,
                                  const crypto::Cookie* cookie) {
  HeldBucket* found = held_.find(ans, now());
  if (found == nullptr) return;
  HeldBucket bucket = std::move(*found);
  held_.erase(ans);
  flush_bucket(std::move(bucket), cookie);
}

void LocalGuardNode::flush_bucket(HeldBucket bucket,
                                  const crypto::Cookie* cookie) {
  for (net::Packet& p : bucket.queries) {
    auto m = dns::Message::decode(BytesView(p.payload));
    if (!m) continue;
    if (cookie != nullptr) {
      CookieEngine::attach_txt_cookie(*m, *cookie, 0);
      stats_.queries_with_cookie++;
    } else {
      stats_.released_without_cookie++;
    }
    if (sim().journeys().enabled()) {
      sim().journeys().mark(jkey_of(p.src_ip.value(), *m),
                            cookie != nullptr ? "lguard.release"
                                              : "lguard.release_plain",
                            now());
    }
    m->encode_to(p.payload);
    cost_ = cost_ + kPacketCost;
    send(std::move(p));
  }
}

void LocalGuardNode::on_cookie_timeout(net::Ipv4Address ans,
                                       std::uint64_t generation) {
  HeldBucket* found = held_.find(ans, now());
  if (found == nullptr || found->generation != generation) return;
  // No cookie reply: the ANS is probably unguarded. Release the held
  // queries unmodified so service continues.
  found->request_outstanding = false;
  release_held(ans, nullptr);
}

}  // namespace dnsguard::guard
