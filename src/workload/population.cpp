#include "workload/population.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <utility>

#include "dns/message.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace dnsguard::workload {

namespace {

/// splitmix64 finalizer: the pure mixing function behind every id -> value
/// mapping in the population (address, resolver group, primedness, DNS
/// id).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Maps a mixed 64-bit value to a uniform double in [0,1).
double mix_uniform01(std::uint64_t x) {
  return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kAddressSalt = 0xadd7e555a17ULL;
constexpr std::uint64_t kGroupSalt = 0x97097e501e50ULL;
constexpr std::uint64_t kPrimedSalt = 0xc0'01'c0'0cULL;

/// Zipf exponent of qname popularity.
constexpr double kZipfExponent = 1.0;
/// Lognormal shape of per-client rates (sigma ~1.5-2 is heavy-tailed;
/// mu only sets the relative scale and is normalized away).
constexpr double kRateSigma = 1.6;
/// Amplitude of the diurnal load curve, when one is configured.
constexpr double kDiurnalAmplitude = 0.3;
/// Every query's qname is "q<rank>" under this suffix.
constexpr std::string_view kQnameSuffix = "pop.example.";

}  // namespace

double inverse_normal_cdf(double p) {
  // Acklam's rational approximation (|relative error| < 1.2e-9).
  static constexpr double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                  -2.759285104469687e+02, 1.383577518672690e+02,
                                  -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                  -1.556989798598866e+02, 6.680131188771972e+01,
                                  -1.328068155288572e+01};
  static constexpr double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                  -2.400758277161838e+00, -2.549732539343734e+00,
                                  4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                                  2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  if (p < p_low) {
    double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  double q = p - 0.5;
  double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

// --- ZipfSampler ------------------------------------------------------------

ZipfSampler::ZipfSampler(std::uint32_t universe, double exponent) {
  if (universe == 0) universe = 1;
  cdf_.resize(universe);
  double total = 0.0;
  for (std::uint32_t r = 0; r < universe; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -exponent);
    cdf_[r] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;
}

std::uint32_t ZipfSampler::sample(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<std::uint32_t>(it - cdf_.begin());
}

double ZipfSampler::probability(std::uint32_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

// --- LognormalRateClasses ---------------------------------------------------

LognormalRateClasses::LognormalRateClasses(int classes, double mu,
                                           double sigma) {
  if (classes < 1) classes = 1;
  rates_.resize(static_cast<std::size_t>(classes));
  cdf_.resize(static_cast<std::size_t>(classes));
  // Class k holds the clients between the k/K and (k+1)/K lognormal
  // quantiles; its per-client rate is the class-midpoint quantile. Equal
  // class populations make a class's share of aggregate traffic simply
  // proportional to its per-client rate.
  double total = 0.0;
  for (int k = 0; k < classes; ++k) {
    double q = (static_cast<double>(k) + 0.5) / static_cast<double>(classes);
    rates_[static_cast<std::size_t>(k)] =
        std::exp(mu + sigma * inverse_normal_cdf(q));
    total += rates_[static_cast<std::size_t>(k)];
  }
  mean_ = total / static_cast<double>(classes);
  double acc = 0.0;
  for (int k = 0; k < classes; ++k) {
    acc += rates_[static_cast<std::size_t>(k)] / total;
    cdf_[static_cast<std::size_t>(k)] = acc;
  }
  cdf_.back() = 1.0;
}

int LognormalRateClasses::sample_class(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int>(it - cdf_.begin());
}

// --- RttModel ---------------------------------------------------------------

RttModel::RttModel(std::vector<Bucket> buckets) : buckets_(std::move(buckets)) {
  if (buckets_.empty()) buckets_.push_back({1.0, milliseconds(40)});
  cdf_.resize(buckets_.size());
  double total = 0.0;
  for (const auto& b : buckets_) total += b.weight;
  double acc = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i].weight / total;
    cdf_[i] = acc;
  }
  cdf_.back() = 1.0;
}

SimDuration RttModel::sample(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return buckets_[static_cast<std::size_t>(it - cdf_.begin())].rtt;
}

std::vector<RttModel::Bucket> RttModel::default_buckets() {
  // A coarse empirical Internet mix: same-metro, regional, continental,
  // transoceanic, and badly-connected tails.
  return {{0.15, milliseconds(5)},
          {0.35, milliseconds(25)},
          {0.30, milliseconds(60)},
          {0.15, milliseconds(120)},
          {0.05, milliseconds(250)}};
}

// --- FlashCrowdEvent --------------------------------------------------------

double FlashCrowdEvent::envelope(SimTime t) const {
  if (t.ns < start.ns) return 0.0;
  std::int64_t dt = t.ns - start.ns;
  if (dt < ramp.ns) {
    return ramp.ns > 0 ? static_cast<double>(dt) / static_cast<double>(ramp.ns)
                       : 1.0;
  }
  dt -= ramp.ns;
  if (dt < hold.ns) return 1.0;
  dt -= hold.ns;
  if (dt < decay.ns) {
    return 1.0 - static_cast<double>(dt) / static_cast<double>(decay.ns);
  }
  return 0.0;
}

// --- PopulationEngine -------------------------------------------------------

PopulationEngine::PopulationEngine(PopulationConfig config)
    : config_(std::move(config)),
      zipf_(config_.qname_universe, kZipfExponent),
      rates_(config_.rate_classes, 0.0, kRateSigma),
      rtt_(config_.rtt_buckets),
      rng_(config_.seed),
      cache_(common::BoundedTable<std::uint64_t, SimTime>::Config{
          .capacity = config_.cache_capacity,
          .ttl = config_.cache_ttl,
          .idle_timeout = SimDuration{},
          .evict_lru_when_full = true}) {
  if (config_.num_clients == 0) config_.num_clients = 1;
  if (config_.resolver_groups == 0) config_.resolver_groups = 1;
  // Thinning bound: diurnal peak plus every flash event at full blast.
  max_rate_ = config_.base_rate * (1.0 + kDiurnalAmplitude);
  for (const auto& e : config_.flash_events) {
    max_rate_ += config_.base_rate * e.peak_multiplier;
  }
  if (max_rate_ <= 0.0) max_rate_ = 1.0;
  if (config_.prefix_len <= 0) {
    prefix_span_ = 0xffffffffu;
  } else if (config_.prefix_len >= 32) {
    prefix_span_ = 1;
  } else {
    prefix_span_ = 1u << (32 - config_.prefix_len);
  }
}

double PopulationEngine::flash_rate_at(SimTime t,
                                       const FlashCrowdEvent& e) const {
  return config_.base_rate * e.peak_multiplier * e.envelope(t);
}

double PopulationEngine::rate_at(SimTime t) const {
  double diurnal = 1.0;
  if (config_.diurnal_period.ns > 0) {
    double phase = static_cast<double>(t.ns) /
                   static_cast<double>(config_.diurnal_period.ns);
    diurnal += kDiurnalAmplitude *
               std::sin(2.0 * 3.14159265358979323846 * phase);
  }
  double r = config_.base_rate * diurnal;
  for (const auto& e : config_.flash_events) r += flash_rate_at(t, e);
  return std::max(r, 0.0);
}

net::Ipv4Address PopulationEngine::client_address(std::uint64_t client) const {
  std::uint32_t offset = static_cast<std::uint32_t>(
      mix64(client ^ kAddressSalt) % prefix_span_);
  std::uint32_t mask =
      prefix_span_ == 0xffffffffu ? 0u : ~(prefix_span_ - 1u);
  return net::Ipv4Address((config_.prefix_base.value() & mask) | offset);
}

std::uint64_t PopulationEngine::sample_client(bool flash_new_cohort,
                                              std::uint64_t cohort_base,
                                              std::uint64_t cohort_size) {
  if (flash_new_cohort) {
    if (cohort_size == 0) cohort_size = 1;
    return cohort_base + rng_.bounded(cohort_size);
  }
  int k = rates_.sample_class(rng_.uniform01());
  std::uint64_t per_class = std::max<std::uint64_t>(
      config_.num_clients / static_cast<std::uint64_t>(rates_.classes()), 1);
  std::uint64_t id = static_cast<std::uint64_t>(k) * per_class +
                     rng_.bounded(per_class);
  return std::min(id, config_.num_clients - 1);
}

Arrival PopulationEngine::next() {
  for (;;) {
    // Non-homogeneous Poisson by thinning: candidate points at the
    // constant bound rate, each kept with probability rate(t)/bound.
    cursor_ = cursor_ + seconds_f(rng_.exponential(1.0 / max_rate_));
    double lambda = rate_at(cursor_);
    if (rng_.uniform01() * max_rate_ > lambda) continue;

    Arrival a;
    a.at = cursor_;

    // Attribute the arrival: flash surge vs steady-state background,
    // proportionally to their rate contributions at this instant.
    double flash_total = 0.0;
    for (const auto& e : config_.flash_events) {
      flash_total += flash_rate_at(cursor_, e);
    }
    const FlashCrowdEvent* event = nullptr;
    std::uint64_t cohort_base = config_.num_clients;
    if (flash_total > 0.0 && rng_.uniform01() * lambda < flash_total) {
      a.flash = true;
      double pick = rng_.uniform01() * flash_total;
      double acc = 0.0;
      std::uint64_t base = config_.num_clients;
      for (const auto& e : config_.flash_events) {
        acc += flash_rate_at(cursor_, e);
        if (pick < acc || &e == &config_.flash_events.back()) {
          event = &e;
          cohort_base = base;
          break;
        }
        base += e.cohort_clients;
      }
    }

    if (event != nullptr) {
      bool fresh = rng_.chance(event->new_source_fraction);
      a.client = sample_client(fresh, cohort_base, event->cohort_clients);
      a.qname_rank = rng_.chance(event->hot_fraction)
                         ? event->hot_rank
                         : zipf_.sample(rng_.uniform01());
      // Flash queries bypass the resolver-cache model: the surge exists
      // precisely because the hot name is fresh/low-TTL (a breaking-news
      // domain), so resolver caches do not absorb its growth.
      a.cache_hit = false;
      a.primed =
          !fresh && mix_uniform01(a.client ^ kPrimedSalt) <
                        config_.primed_fraction;
    } else {
      a.client = sample_client(false, 0, 0);
      a.qname_rank = zipf_.sample(rng_.uniform01());
      std::uint64_t group =
          mix64(a.client ^ kGroupSalt) % config_.resolver_groups;
      std::uint64_t key = (group << 32) | a.qname_rank;
      if (cache_.find(key, cursor_) != nullptr) {
        a.cache_hit = true;
      } else {
        a.cache_hit = false;
        (void)cache_.try_emplace(key, cursor_, cursor_);
      }
      a.primed = mix_uniform01(a.client ^ kPrimedSalt) <
                 config_.primed_fraction;
    }

    a.src = client_address(a.client);
    a.rtt = rtt_.sample(rng_.uniform01());
    return a;
  }
}

// --- ClientPopulationNode ---------------------------------------------------

ClientPopulationNode::ClientPopulationNode(sim::Simulator& sim,
                                           std::string name, Config config)
    : sim::Node(sim, std::move(name)),
      config_(std::move(config)),
      qname_suffix_(
          dns::DomainName::parse(kQnameSuffix).value_or(dns::DomainName{})),
      engine_(config_.population),
      minter_(guard::kDefaultKeySeed) {
  set_profile_stage(obs::prof::Stage::kDriverService);
  sim.add_route(config_.population.prefix_base, config_.population.prefix_len,
                this);
  stats_.bind(sim.metrics(), "population");
}

void ClientPopulationNode::start() {
  if (running_) return;
  running_ = true;
  ++epoch_;
  pump();
}

void ClientPopulationNode::stop() {
  running_ = false;
  ++epoch_;
}

void ClientPopulationNode::pump() {
  // One arrival in flight at a time: generate, schedule at its edge time,
  // emit, repeat.
  Arrival a = engine_.next();
  SimDuration delay = a.at - now();
  if (delay.ns < 0) delay = SimDuration{0};
  std::uint64_t epoch = epoch_;
  schedule_in(delay, [this, epoch, a] {
    if (epoch != epoch_ || !running_) return;
    emit_arrival(a);
    pump();
  });
}

dns::DomainName ClientPopulationNode::qname_for(std::uint32_t rank) const {
  char label[16] = {'q'};  // "q" + at most 10 decimal digits
  const char* end = std::to_chars(label + 1, label + sizeof(label), rank).ptr;
  const std::string_view text(label, static_cast<std::size_t>(end - label));
  return qname_suffix_.with_prefix_label(text).value_or(dns::DomainName{});
}

void ClientPopulationNode::emit_arrival(const Arrival& a) {
  stats_.offered++;
  if (a.cache_hit) {
    stats_.cache_hits++;
    return;
  }

  std::uint16_t id = static_cast<std::uint16_t>(
      mix64(a.client ^ (static_cast<std::uint64_t>(a.qname_rank) << 20) ^
            static_cast<std::uint64_t>(a.at.ns)));
  tx_.set_query(id, qname_for(a.qname_rank), dns::RrType::A, false);
  if (a.primed) {
    guard::CookieEngine::attach_txt_cookie(tx_, minter_.mint(a.src), 0);
  } else {
    // Cold client: request a cookie (zero cookie), retry on the reply.
    guard::CookieEngine::attach_txt_cookie(tx_, crypto::Cookie{}, 0);
  }
  std::uint16_t port =
      static_cast<std::uint16_t>(32768 + (mix64(a.client) & 0x3fff));
  net::Packet pkt = net::Packet::make_udp({a.src, port}, config_.target,
                                          tx_.encode_pooled());
  stats_.sent++;
  if (a.flash) stats_.flash_sent++;
  send(std::move(pkt));
}

SimDuration ClientPopulationNode::process(const net::Packet& packet) {
  if (!dns::Message::decode_into(BytesView(packet.payload), rx_) ||
      !rx_.header.qr) {
    stats_.unexpected++;
    return SimDuration{0};
  }
  const dns::Message& response = rx_;

  auto cookie = guard::CookieEngine::extract_txt_cookie(response);
  bool cookie_reply = cookie.has_value() &&
                      !guard::CookieEngine::is_zero_cookie(*cookie) &&
                      response.answers.empty();
  if (cookie_reply) {
    // msg 3 of the modified-DNS dance: echo the granted cookie after the
    // client's RTT. Stateless: the RTT re-derives from (addr, id), and the
    // question rides in the reply, so millions of cold clients need no
    // per-query bookkeeping here.
    stats_.acquisitions++;
    const dns::Question* qst = response.question();
    if (qst == nullptr) {
      stats_.unexpected++;
      return SimDuration{0};
    }
    SimDuration rtt = engine_.rtt_model().sample(mix_uniform01(
        (static_cast<std::uint64_t>(packet.dst_ip.value()) << 16) ^
        response.header.id));
    net::Ipv4Address src = packet.dst_ip;
    std::uint16_t port = packet.dst_port;
    std::uint16_t id = static_cast<std::uint16_t>(response.header.id + 1);
    // Encoded now: wire bytes fit EventFn's inline buffer, a name does not.
    tx_.set_query(id, qst->qname, dns::RrType::A, false);
    guard::CookieEngine::attach_txt_cookie(tx_, *cookie, 0);
    std::uint64_t epoch = epoch_;
    schedule_in(rtt, [this, epoch, src, port,
                      wire = tx_.encode_pooled()]() mutable {
      if (epoch != epoch_ || !running_) return;
      stats_.sent++;
      send(net::Packet::make_udp({src, port}, config_.target,
                                 std::move(wire)));
    });
    return SimDuration{0};
  }

  // Anything else the ANS answered (including NXDOMAIN) is a completed
  // query — the population's goodput signal.
  stats_.completed++;
  return SimDuration{0};
}

}  // namespace dnsguard::workload
