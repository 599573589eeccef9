// ClientPopulationNode — an aggregate client-population engine that
// models millions of LRS clients without one sim::Node per client.
//
// The scalability trick is hybrid fidelity: client behavior is kept as
// *fluid* closed-form distributions at the edge (who queries, what, how
// often), and concrete packets are materialized only at the guard
// boundary. One node therefore stands in for the whole Internet-facing
// client population:
//
//   - qname popularity is Zipf-distributed (ZipfSampler) and feeds a
//     shared resolver-cache model, so only cache *misses* reach the
//     guard — popular names are absorbed exactly as RrCaches absorb them;
//   - per-client query rates are heavy-tailed (LognormalRateClasses:
//     the population is stratified into rate classes discretizing a
//     lognormal, and each materialized query picks its sender with
//     probability proportional to that client's rate);
//   - client RTTs follow an empirical bucket distribution (RttModel) —
//     cold clients pay their sampled RTT before the cookie-bearing
//     retry, so acquisition latency spreads realistically;
//   - aggregate load follows a diurnal curve plus scripted flash-crowd
//     events, realized as a non-homogeneous Poisson process (thinning),
//     so a "flash crowd" is a surge of *legitimate* queries from a
//     partly fresh source population concentrated on hot names.
//
// Everything is drawn from one explicitly seeded common::Rng, so a
// scenario is bit-for-bit reproducible in sim time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bounded_table.h"
#include "common/rng.h"
#include "common/time.h"
#include "guard/cookie_engine.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "sim/node.h"

namespace dnsguard::workload {

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |error| < 1.2e-9) — quantile machinery for the lognormal rate classes.
[[nodiscard]] double inverse_normal_cdf(double p);

/// Zipf(s) popularity over ranks [0, universe): P(rank r) ∝ 1/(r+1)^s.
/// Sampling is inverse-CDF via binary search on a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t universe, double exponent);

  /// Maps a uniform u in [0,1) to a rank.
  [[nodiscard]] std::uint32_t sample(double u) const;
  [[nodiscard]] double probability(std::uint32_t rank) const;
  [[nodiscard]] std::uint32_t universe() const {
    return static_cast<std::uint32_t>(cdf_.size());
  }

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
};

/// Heavy-tailed per-client rates: the population is split into K equal-
/// population classes whose per-client rates discretize a lognormal
/// (median exp(mu), shape sigma). A query's *sender class* is sampled
/// proportionally to class aggregate rate — fast senders appear as often
/// as their rate share dictates, without per-client state.
class LognormalRateClasses {
 public:
  LognormalRateClasses(int classes, double mu, double sigma);

  /// Maps a uniform u to the class of the next query's sender.
  [[nodiscard]] int sample_class(double u) const;
  /// Per-client queries/sec of class k (relative scale; the engine
  /// normalizes aggregate load to Config::base_rate).
  [[nodiscard]] double rate(int k) const { return rates_[k]; }
  [[nodiscard]] int classes() const { return static_cast<int>(rates_.size()); }
  /// Mean per-client rate across the population (relative scale).
  [[nodiscard]] double mean_rate() const { return mean_; }

 private:
  std::vector<double> rates_;
  std::vector<double> cdf_;  // class share of aggregate traffic
  double mean_ = 0.0;
};

/// Empirical RTT distribution as weighted buckets.
class RttModel {
 public:
  struct Bucket {
    double weight;
    SimDuration rtt;
  };

  explicit RttModel(std::vector<Bucket> buckets);
  /// The default Internet mix: regional to intercontinental.
  RttModel() : RttModel(default_buckets()) {}

  [[nodiscard]] SimDuration sample(double u) const;
  [[nodiscard]] static std::vector<Bucket> default_buckets();

 private:
  std::vector<Bucket> buckets_;
  std::vector<double> cdf_;
};

/// A scripted flash-crowd: a surge of legitimate traffic that ramps up,
/// holds, and decays, sourced partly from clients never seen before and
/// concentrated on a hot qname — the classic event a DNS defense must
/// NOT classify as an attack.
struct FlashCrowdEvent {
  SimTime start{};
  SimDuration ramp = seconds(1);
  SimDuration hold = seconds(2);
  SimDuration decay = seconds(1);
  /// Peak extra load, as a multiple of Config::base_rate.
  double peak_multiplier = 4.0;
  /// Fraction of flash queries from a fresh cohort of sources that the
  /// steady-state population never uses (source-population growth).
  double new_source_fraction = 0.7;
  /// Size of that fresh cohort (distinct new client ids).
  std::uint64_t cohort_clients = 100000;
  /// Flash queries concentrate on this popularity rank...
  std::uint32_t hot_rank = 0;
  /// ...with this probability (the rest draw from the normal Zipf).
  double hot_fraction = 0.8;

  /// Envelope in [0,1] at time t (0 outside the event).
  [[nodiscard]] double envelope(SimTime t) const;
};

/// One materialized client query at the guard boundary.
struct Arrival {
  SimTime at{};                // edge arrival time
  std::uint64_t client = 0;    // population client id (cohort-offset)
  net::Ipv4Address src;        // client source address
  std::uint32_t qname_rank = 0;
  SimDuration rtt{};           // the client's sampled RTT
  bool flash = false;          // belongs to a flash-crowd surge
  bool primed = false;         // already holds a valid cookie
  bool cache_hit = false;      // absorbed by the resolver cache model
};

struct PopulationConfig {
  /// Modeled population size (client ids [0, num_clients)).
  std::uint64_t num_clients = 1000000;
  /// Clients map into this prefix (id -> mixed hash -> base + offset).
  net::Ipv4Address prefix_base{100, 0, 0, 0};
  int prefix_len = 8;

  /// Aggregate steady-state query rate at the diurnal mean (queries/sec
  /// *offered by clients*; the cache model absorbs its share).
  double base_rate = 20000.0;

  // --- popularity & caching ---
  std::uint32_t qname_universe = 100000;
  /// Shared resolver caches: clients aggregate into this many cache
  /// groups (group = hash(client) % resolver_groups); a (group, rank)
  /// pair stays cached for cache_ttl after the miss that filled it.
  std::uint32_t resolver_groups = 1024;
  SimDuration cache_ttl = seconds(60);
  /// Bounded tracking of (group, rank) cache lines; cold pairs beyond
  /// the capacity simply miss (they would have expired anyway).
  std::size_t cache_capacity = 1 << 18;

  // --- per-client rates ---
  int rate_classes = 32;

  // --- RTT ---
  std::vector<RttModel::Bucket> rtt_buckets = RttModel::default_buckets();

  // --- load envelope ---
  /// Diurnal multiplier 1 + 0.3 * sin(2*pi*t/period).
  SimDuration diurnal_period{};  // zero = flat load
  std::vector<FlashCrowdEvent> flash_events;

  // --- cookie behavior (modified-DNS scheme) ---
  /// Fraction of steady-state clients that already hold a valid cookie
  /// (the paper's cache-hit steady state). Cold clients request one and
  /// retry after their RTT. Flash-cohort clients are always cold.
  /// Primed clients' cookies are minted under guard::kDefaultKeySeed.
  double primed_fraction = 0.9;

  std::uint64_t seed = 2006;
};

/// Deterministic arrival-stream generator (no sim::Node machinery): the
/// non-homogeneous Poisson thinning loop plus all per-arrival sampling.
/// Tests drive it directly; ClientPopulationNode wraps it.
class PopulationEngine {
 public:
  explicit PopulationEngine(PopulationConfig config);

  /// The next materialized arrival strictly after the previous one.
  [[nodiscard]] Arrival next();

  /// Aggregate offered rate at `t` (diurnal + flash envelopes applied).
  [[nodiscard]] double rate_at(SimTime t) const;
  /// The thinning bound: max over all envelopes.
  [[nodiscard]] double max_rate() const { return max_rate_; }

  [[nodiscard]] const PopulationConfig& config() const { return config_; }

  /// The client id's source address (pure function: id -> IP).
  [[nodiscard]] net::Ipv4Address client_address(std::uint64_t client) const;
  /// The client RTT distribution (config().rtt_buckets).
  [[nodiscard]] const RttModel& rtt_model() const { return rtt_; }

 private:
  [[nodiscard]] double flash_rate_at(SimTime t, const FlashCrowdEvent& e) const;
  [[nodiscard]] std::uint64_t sample_client(bool flash_new_cohort,
                                            std::uint64_t cohort_base,
                                            std::uint64_t cohort_size);

  PopulationConfig config_;
  ZipfSampler zipf_;
  LognormalRateClasses rates_;
  RttModel rtt_;
  Rng rng_;
  SimTime cursor_{};
  double max_rate_ = 0.0;
  std::uint32_t prefix_span_ = 0;
  common::BoundedTable<std::uint64_t, SimTime> cache_;
};

/// Counter cells; attached to the registry as "population.*".
struct PopulationStats {
  obs::Counter offered;       // client-side arrivals, incl. cache hits
  obs::Counter cache_hits;    // absorbed by the resolver cache model
  obs::Counter sent;          // packets materialized toward the guard
  obs::Counter flash_sent;    // of which flash-crowd surge queries
  obs::Counter acquisitions;  // cookie replies answered with a retry
  obs::Counter completed;     // DNS answers received (goodput)
  obs::Counter unexpected;    // responses that fit no category

  void bind(obs::MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_counter(p + ".offered", offered);
    registry.attach_counter(p + ".cache_hits", cache_hits);
    registry.attach_counter(p + ".sent", sent);
    registry.attach_counter(p + ".flash_sent", flash_sent);
    registry.attach_counter(p + ".acquisitions", acquisitions);
    registry.attach_counter(p + ".completed", completed);
    registry.attach_counter(p + ".unexpected", unexpected);
  }
};

/// The population as a single simulator node: owns the engine, opens the
/// client prefix route, materializes packets at the boundary, and speaks
/// just enough of the modified-DNS dance for cold clients (cookie reply
/// -> RTT-delayed retry with the granted cookie).
class ClientPopulationNode : public sim::Node {
 public:
  struct Config {
    PopulationConfig population;
    net::SocketAddr target;  // the protected ANS's public address
  };

  ClientPopulationNode(sim::Simulator& sim, std::string name, Config config);

  /// Opens the client prefix route and starts materializing arrivals.
  void start();
  void stop();

  [[nodiscard]] const PopulationStats& population_stats() const {
    return stats_;
  }
  [[nodiscard]] PopulationEngine& engine() { return engine_; }

 protected:
  SimDuration process(const net::Packet& packet) override;

 private:
  void pump();
  void emit_arrival(const Arrival& a);
  [[nodiscard]] dns::DomainName qname_for(std::uint32_t rank) const;

  Config config_;
  dns::DomainName qname_suffix_;  // every qname's parent, parsed once
  PopulationEngine engine_;
  guard::CookieEngine minter_;
  /// Queries are built in tx_ and replies decoded into rx_, so their
  /// storage is kept across packets.
  dns::Message tx_;
  dns::Message rx_;
  PopulationStats stats_;
  std::uint64_t epoch_ = 0;  // invalidates scheduled pumps on stop
  bool running_ = false;
};

}  // namespace dnsguard::workload
