// Aggregate client-population engine: sampler distributions match their
// configured parameters, and the arrival stream and the packets built from
// it are bit-for-bit reproducible from the seed.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench/wire_digest.h"
#include "common/rng.h"
#include "common/time.h"
#include "dns/message.h"
#include "net/ipv4.h"
#include "sim/simulator.h"
#include "workload/population.h"

namespace dnsguard::workload {
namespace {

SimTime at(std::int64_t ms) { return SimTime{} + milliseconds(ms); }

TEST(InverseNormalCdf, MatchesKnownQuantiles) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(inverse_normal_cdf(0.8413), 1.0, 1e-3);
  // Symmetry about the median.
  EXPECT_NEAR(inverse_normal_cdf(0.1), -inverse_normal_cdf(0.9), 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.001), -inverse_normal_cdf(0.999), 1e-9);
}

TEST(ZipfSampler, ProbabilitiesAreNormalizedAndMonotone) {
  ZipfSampler z(1000, 1.0);
  EXPECT_EQ(z.universe(), 1000u);
  double sum = 0.0;
  for (std::uint32_t r = 0; r < z.universe(); ++r) {
    sum += z.probability(r);
    if (r > 0) {
      EXPECT_LE(z.probability(r), z.probability(r - 1)) << r;
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Zipf(1) head: P(0) = 1/H_1000 with H_1000 ~ 7.4855.
  EXPECT_NEAR(z.probability(0), 1.0 / 7.48547, 1e-4);
}

TEST(ZipfSampler, EmpiricalFrequenciesMatchProbabilities) {
  ZipfSampler z(1000, 1.0);
  Rng rng(7);
  constexpr int kSamples = 200000;
  std::vector<int> hits(z.universe(), 0);
  for (int i = 0; i < kSamples; ++i) hits[z.sample(rng.uniform01())]++;
  for (std::uint32_t r : {0u, 1u, 2u, 10u}) {
    double expected = z.probability(r) * kSamples;
    EXPECT_NEAR(hits[r], expected, 0.1 * expected) << "rank " << r;
  }
  // The tail exists: ranks past the head still get sampled.
  int tail = 0;
  for (std::uint32_t r = 500; r < 1000; ++r) tail += hits[r];
  EXPECT_GT(tail, 0);
}

TEST(LognormalRateClasses, HeavyTailedAndNormalized) {
  LognormalRateClasses lr(32, 0.0, 1.6);
  ASSERT_EQ(lr.classes(), 32);
  for (int k = 1; k < lr.classes(); ++k) {
    EXPECT_GT(lr.rate(k), lr.rate(k - 1)) << "class " << k;
  }
  // Heavy tail: the mean sits well above the median exp(mu) = 1, near
  // the lognormal mean exp(sigma^2/2) ~ 3.6 (discretization truncates
  // the extreme tail, so allow a loose band).
  EXPECT_GT(lr.mean_rate(), 2.0);
  EXPECT_NEAR(lr.mean_rate(), std::exp(1.6 * 1.6 / 2.0),
              0.3 * std::exp(1.6 * 1.6 / 2.0));

  // sample_class draws senders proportionally to aggregate rate share:
  // with equal-population classes, class k's share is rate(k)/sum.
  double sum = 0.0;
  for (int k = 0; k < lr.classes(); ++k) sum += lr.rate(k);
  Rng rng(11);
  constexpr int kSamples = 100000;
  std::vector<int> hits(32, 0);
  for (int i = 0; i < kSamples; ++i) hits[lr.sample_class(rng.uniform01())]++;
  double top_share = lr.rate(31) / sum;
  EXPECT_NEAR(hits[31], top_share * kSamples, 0.1 * top_share * kSamples);
  // The slowest classes barely appear even though they are 1/32 of the
  // population — that is the heavy tail doing its job.
  EXPECT_LT(hits[0], kSamples / 320);
}

TEST(RttModel, SamplesFollowBucketWeights) {
  std::vector<RttModel::Bucket> buckets = {
      {0.6, milliseconds(10)}, {0.3, milliseconds(50)},
      {0.1, milliseconds(200)}};
  RttModel rtt(buckets);
  EXPECT_EQ(rtt.sample(0.0).ns, milliseconds(10).ns);
  EXPECT_EQ(rtt.sample(0.59).ns, milliseconds(10).ns);
  EXPECT_EQ(rtt.sample(0.65).ns, milliseconds(50).ns);
  EXPECT_EQ(rtt.sample(0.95).ns, milliseconds(200).ns);
  EXPECT_EQ(rtt.sample(0.999999).ns, milliseconds(200).ns);

  Rng rng(3);
  int slow = 0;
  for (int i = 0; i < 10000; ++i) {
    SimDuration d = rtt.sample(rng.uniform01());
    bool known = d.ns == milliseconds(10).ns || d.ns == milliseconds(50).ns ||
                 d.ns == milliseconds(200).ns;
    ASSERT_TRUE(known) << d.ns;
    if (d.ns == milliseconds(200).ns) slow++;
  }
  EXPECT_NEAR(slow, 1000, 150);
}

TEST(FlashCrowdEvent, EnvelopeRampsHoldsAndDecays) {
  FlashCrowdEvent e;
  e.start = at(1000);
  e.ramp = milliseconds(200);
  e.hold = milliseconds(400);
  e.decay = milliseconds(200);
  EXPECT_EQ(e.envelope(at(0)), 0.0);
  EXPECT_EQ(e.envelope(at(999)), 0.0);
  EXPECT_NEAR(e.envelope(at(1100)), 0.5, 1e-9);  // mid-ramp
  EXPECT_NEAR(e.envelope(at(1200)), 1.0, 1e-9);  // ramp complete
  EXPECT_NEAR(e.envelope(at(1400)), 1.0, 1e-9);  // holding
  EXPECT_NEAR(e.envelope(at(1700)), 0.5, 1e-9);  // mid-decay
  EXPECT_EQ(e.envelope(at(1801)), 0.0);          // over
}

PopulationConfig small_config() {
  PopulationConfig cfg;
  cfg.num_clients = 10000;
  cfg.base_rate = 5000.0;
  cfg.qname_universe = 1000;
  cfg.resolver_groups = 64;
  cfg.cache_ttl = milliseconds(500);
  cfg.seed = 42;
  return cfg;
}

TEST(PopulationEngine, RateAtFollowsEnvelopes) {
  PopulationConfig cfg = small_config();
  FlashCrowdEvent e;
  e.start = at(1000);
  e.ramp = milliseconds(200);
  e.hold = milliseconds(400);
  e.decay = milliseconds(200);
  e.peak_multiplier = 4.0;
  cfg.flash_events.push_back(e);
  PopulationEngine eng(cfg);

  EXPECT_NEAR(eng.rate_at(at(0)), 5000.0, 1e-6);      // flat diurnal
  EXPECT_NEAR(eng.rate_at(at(1400)), 25000.0, 1e-6);  // base * (1 + 4)
  EXPECT_NEAR(eng.rate_at(at(3000)), 5000.0, 1e-6);
  for (std::int64_t ms = 0; ms <= 3000; ms += 50) {
    EXPECT_LE(eng.rate_at(at(ms)), eng.max_rate() + 1e-6) << ms;
  }
}

TEST(PopulationEngine, SameSeedSameArrivalSequence) {
  PopulationConfig cfg = small_config();
  FlashCrowdEvent e;
  e.start = at(200);
  e.ramp = milliseconds(100);
  e.hold = milliseconds(300);
  e.decay = milliseconds(100);
  e.cohort_clients = 500;
  cfg.flash_events.push_back(e);

  PopulationEngine a(cfg);
  PopulationEngine b(cfg);
  for (int i = 0; i < 3000; ++i) {
    Arrival x = a.next();
    Arrival y = b.next();
    ASSERT_EQ(x.at.ns, y.at.ns) << i;
    ASSERT_EQ(x.client, y.client) << i;
    ASSERT_EQ(x.src.value(), y.src.value()) << i;
    ASSERT_EQ(x.qname_rank, y.qname_rank) << i;
    ASSERT_EQ(x.rtt.ns, y.rtt.ns) << i;
    ASSERT_EQ(x.flash, y.flash) << i;
    ASSERT_EQ(x.primed, y.primed) << i;
    ASSERT_EQ(x.cache_hit, y.cache_hit) << i;
  }
}

TEST(PopulationEngine, ArrivalsRespectConfiguredShape) {
  PopulationConfig cfg = small_config();
  FlashCrowdEvent e;
  e.start = at(200);
  e.ramp = milliseconds(100);
  e.hold = milliseconds(300);
  e.decay = milliseconds(100);
  e.cohort_clients = 500;
  e.hot_rank = 3;
  cfg.flash_events.push_back(e);
  PopulationEngine eng(cfg);

  SimTime prev{};
  std::uint64_t hits = 0, misses = 0, flash = 0, cohort = 0;
  std::uint64_t primed = 0, cold = 0;
  for (int i = 0; i < 5000; ++i) {
    Arrival a = eng.next();
    ASSERT_GE(a.at.ns, prev.ns) << i;  // time moves forward
    prev = a.at;
    ASSERT_LT(a.qname_rank, cfg.qname_universe);
    ASSERT_TRUE(a.src.in_subnet(cfg.prefix_base, cfg.prefix_len))
        << a.src.value();
    ASSERT_EQ(a.src.value(), eng.client_address(a.client).value());
    a.cache_hit ? hits++ : misses++;
    if (a.flash) {
      flash++;
      // Flash surges bypass the resolver-cache model (fresh names).
      ASSERT_FALSE(a.cache_hit);
      // Flash arrivals only occur inside the event's support.
      ASSERT_GE(a.at.ns, e.start.ns);
      ASSERT_LE(a.at.ns, (e.start + e.ramp + e.hold + e.decay).ns);
      if (a.client >= cfg.num_clients) cohort++;
    } else {
      ASSERT_LT(a.client, cfg.num_clients);
    }
    a.primed ? primed++ : cold++;
  }
  EXPECT_GT(hits, 100u);    // popular names get absorbed
  EXPECT_GT(misses, 100u);  // the tail still reaches the guard
  EXPECT_GT(flash, 200u);   // the surge materialized
  EXPECT_GT(cohort, 50u);   // with genuinely fresh sources
  EXPECT_GT(primed, cold);  // primed_fraction = 0.9 dominates
  EXPECT_GT(cold, 0u);
}

/// Records the qname of every query delivered to it.
class QnameSink : public sim::Node {
 public:
  using sim::Node::Node;
  std::vector<dns::DomainName> qnames;

 protected:
  SimDuration process(const net::Packet& p) override {
    auto m = dns::Message::decode(BytesView(p.payload));
    if (m && m->question() != nullptr) qnames.push_back(m->question()->qname);
    return SimDuration{};
  }
};

// Runs one population node against a target that never answers (so only
// first-send packets count), digesting every packet the tap sees.
struct PopulationRun {
  std::uint64_t digest = 0;
  std::uint64_t tapped = 0;  // packets the digest folded in
  std::uint64_t sent = 0;
  std::uint64_t offered = 0;
  std::uint64_t cache_hits = 0;
};

PopulationRun run_population() {
  sim::Simulator sim;
  const net::Ipv4Address target{10, 9, 9, 9};
  QnameSink sink(sim, "sink");
  sim.add_host_route(target, &sink);
  bench::WireDigest digest;
  sim.set_tap([&digest](SimTime t, const sim::Node*, const sim::Node*,
                        const net::Packet& p) { digest.add(t, p); });
  ClientPopulationNode::Config cfg;
  cfg.population = small_config();
  cfg.target = {target, net::kDnsPort};
  ClientPopulationNode pop(sim, "pop", cfg);
  pop.start();
  sim.run_for(milliseconds(400));
  pop.stop();
  sim.clear_tap();
  return {digest.value(), digest.packets(),
          pop.population_stats().sent.value(),
          pop.population_stats().offered.value(),
          pop.population_stats().cache_hits.value()};
}

TEST(ClientPopulationNode, DeterministicAcrossReruns) {
  PopulationRun first = run_population();
  EXPECT_GT(first.sent, 500u);
  EXPECT_EQ(first.tapped, first.sent);  // the digest saw every packet
  EXPECT_GT(first.cache_hits, 50u);

  // Same seed, fresh simulator: bit-for-bit identical.
  PopulationRun rerun = run_population();
  EXPECT_EQ(first.digest, rerun.digest);
  EXPECT_EQ(first.sent, rerun.sent);
  EXPECT_EQ(first.offered, rerun.offered);
}

TEST(ClientPopulationNode, QueriesNameTheirRankUnderTheSuffix) {
  sim::Simulator sim;
  const net::Ipv4Address target{10, 9, 9, 9};
  QnameSink sink(sim, "sink");
  sim.add_host_route(target, &sink);
  ClientPopulationNode::Config cfg;
  cfg.population = small_config();
  cfg.target = {target, net::kDnsPort};
  ClientPopulationNode pop(sim, "pop", cfg);
  pop.start();
  sim.run_for(milliseconds(200));
  pop.stop();

  ASSERT_GT(sink.qnames.size(), 100u);
  const dns::DomainName suffix = *dns::DomainName::parse("pop.example.");
  for (const dns::DomainName& q : sink.qnames) {
    ASSERT_EQ(q.label_count(), 3u) << q.to_string();
    EXPECT_EQ(q.parent(), suffix) << q.to_string();
    const std::string_view label = q.first_label();
    std::uint32_t rank = 0;
    std::from_chars(label.data() + 1, label.data() + label.size(), rank);
    EXPECT_EQ(label, "q" + std::to_string(rank)) << q.to_string();
    EXPECT_LT(rank, cfg.population.qname_universe) << q.to_string();
  }
}

}  // namespace
}  // namespace dnsguard::workload
