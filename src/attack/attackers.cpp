#include "attack/attackers.h"

#include "common/hex.h"
#include "crypto/cookie_hash.h"
#include "guard/cookie_engine.h"

namespace dnsguard::attack {

FloodNodeBase::FloodNodeBase(sim::Simulator& sim, std::string name,
                             Config config)
    : sim::Node(sim, std::move(name)),
      config_(std::move(config)),
      qname_(dns::DomainName::parse(config_.qname_base)
                 .value_or(dns::DomainName{})),
      rng_(config_.seed) {
  set_profile_stage(obs::prof::Stage::kAttackService);
}

dns::Message& FloodNodeBase::make_query(std::uint16_t id,
                                        const dns::DomainName& qname) {
  query_.set_query(id, qname, dns::RrType::A, false);
  return query_;
}

void FloodNodeBase::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  tick();
}

void FloodNodeBase::tick() {
  if (!running_ || config_.rate <= 0) return;
  stats_.sent++;
  send(next_packet());
  // Deterministic inter-departure time; attackers blast at constant rate.
  SimDuration gap = seconds_f(1.0 / config_.rate);
  std::uint64_t epoch = epoch_;
  schedule_in(gap, [this, epoch] {
    if (epoch == epoch_) tick();
  });
}

SimDuration FloodNodeBase::process(const net::Packet& packet) {
  // Responses reaching the attacker's own address (e.g. for zombie mode).
  stats_.responses_received++;
  stats_.response_bytes += packet.wire_size();
  return SimDuration{0};
}

net::Packet SpoofedFloodNode::next_packet() {
  net::Ipv4Address src(
      spoof_.spoof_base.value() +
      static_cast<std::uint32_t>(rng_.bounded(spoof_.spoof_range)));
  dns::Message& q = make_query(static_cast<std::uint16_t>(rng_.next()), qname_);
  if (spoof_.random_txt_cookie) {
    crypto::Cookie c;
    for (auto& b : c) b = static_cast<std::uint8_t>(rng_.next());
    guard::CookieEngine::attach_txt_cookie(q, c, 0);
  }
  return net::Packet::make_udp({src, 33000}, config_.target,
                               q.encode_pooled());
}

net::Packet PrefixHopFloodNode::next_packet() {
  const std::uint32_t hop = hop_index(now());
  net::Ipv4Address src(
      hop_.prefix_base.value() + hop * hop_.prefix_span +
      static_cast<std::uint32_t>(
          rng_.bounded(hop_.prefix_span == 0 ? 1 : hop_.prefix_span)));
  dns::Message& q = make_query(static_cast<std::uint16_t>(rng_.next()), qname_);
  if (hop_.random_txt_cookie) {
    crypto::Cookie c;
    for (auto& b : c) b = static_cast<std::uint8_t>(rng_.next());
    guard::CookieEngine::attach_txt_cookie(q, c, 0);
  }
  return net::Packet::make_udp({src, 33000}, config_.target,
                               q.encode_pooled());
}

net::Packet CookieGuessNode::next_packet() {
  std::uint16_t id = static_cast<std::uint16_t>(rng_.next());
  switch (guess_.mode) {
    case Mode::SubnetAddress: {
      // Spray queries across the guard's subnet: 1/R_y of them hit the
      // victim's real cookie address (§III.G worst-case false negative).
      std::uint32_t y =
          static_cast<std::uint32_t>(rng_.bounded(guess_.r_y));
      net::Ipv4Address dst(guess_.subnet_base.value() + 1 + y);
      return net::Packet::make_udp({guess_.victim, 33000},
                                   {dst, net::kDnsPort},
                                   make_query(id, qname_).encode_pooled());
    }
    case Mode::NsNameLabel: {
      // Random hex cookie label under the protected zone.
      std::uint8_t raw[4];
      std::uint32_t r = static_cast<std::uint32_t>(rng_.next());
      raw[0] = static_cast<std::uint8_t>(r >> 24);
      raw[1] = static_cast<std::uint8_t>(r >> 16);
      raw[2] = static_cast<std::uint8_t>(r >> 8);
      raw[3] = static_cast<std::uint8_t>(r);
      std::string label = std::string(guard::kCookieLabelPrefix) +
                          hex_encode(BytesView(raw, 4)) + "com";
      auto qname = guess_.zone.with_prefix_label(label);
      return net::Packet::make_udp(
          {guess_.victim, 33000}, config_.target,
          make_query(id, qname.value_or(dns::DomainName{})).encode_pooled());
    }
    case Mode::TxtCookie: {
      dns::Message& q = make_query(id, qname_);
      crypto::Cookie c;
      for (auto& b : c) b = static_cast<std::uint8_t>(rng_.next());
      guard::CookieEngine::attach_txt_cookie(q, c, 0);
      return net::Packet::make_udp({guess_.victim, 33000}, config_.target,
                                   q.encode_pooled());
    }
  }
  // Unreachable; keep the compiler satisfied.
  return net::Packet::make_udp({guess_.victim, 33000}, config_.target, {});
}

net::Packet ZombieFloodNode::next_packet() {
  const auto id = static_cast<std::uint16_t>(rng_.next());
  return net::Packet::make_udp({config_.own_address, 33000}, config_.target,
                               make_query(id, qname_).encode_pooled());
}

}  // namespace dnsguard::attack
