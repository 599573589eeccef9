// Shared testbed assembly for the paper-reproduction benchmarks.
//
// Mirrors the §IV.A testbed: a protected ANS (BIND-like or the fast "ANS
// simulator"), the remote DNS guard in router mode, LRS-simulator load
// drivers and attack generators, wired through the discrete-event network
// with the testbed's 0.4 ms LAN RTT.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/attackers.h"
#include "guard/remote_guard.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "server/authoritative_node.h"
#include "server/zone.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"
#include "workload/metrics.h"

namespace dnsguard::bench {

/// CI smoke mode: when $DNSGUARD_BENCH_QUICK is set (non-empty), benches
/// shrink warmup/measurement windows and sweep fewer points so the whole
/// suite runs in seconds. Virtual-time results stay deterministic, so the
/// quick numbers are comparable across runs and gate regressions in CI.
inline bool quick_mode() {
  const char* env = std::getenv("DNSGUARD_BENCH_QUICK");
  return env != nullptr && env[0] != '\0';
}

/// Picks the full-fidelity value or the smoke-test value.
template <typename T>
T quick(T full_value, T quick_value) {
  return quick_mode() ? quick_value : full_value;
}

// --- wall-clock measurement ------------------------------------------------
// Benches measure *host* throughput, so they legitimately read real time —
// but only through these helpers. Everything else in the tree runs on the
// sim clock; bench_common.h and src/common/time.cpp are the only files the
// sim-time-purity lint rule exempts (tools/lint/dnsguard_lint.py), which
// keeps stray wall-clock reads out of simulation code.

using WallClock = std::chrono::steady_clock;

/// Starts a wall-clock measurement.
inline WallClock::time_point wall_now() { return WallClock::now(); }

/// Seconds elapsed since `t0`.
inline double wall_seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// Seconds of CPU time consumed by the calling thread. Unlike the wall
/// helpers this excludes scheduler preemption and hypervisor steal, so
/// A/B comparisons of pure CPU cost (e.g. the profiler overhead gate)
/// stay measurable on noisy shared hosts where wall-clock deltas drown
/// in multi-percent interference.
inline double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return wall_seconds_since(WallClock::time_point{});
}

/// Mean wall nanoseconds per operation since `t0`. An empty window (no
/// operations completed, e.g. a quick-mode run whose warmup consumed the
/// whole load) reports 0 rather than dividing by zero — inf/nan would
/// poison the JSON output and every downstream baseline comparison.
inline double wall_ns_per_op(WallClock::time_point t0, std::uint64_t ops) {
  if (ops == 0) return 0.0;
  return wall_seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

/// Machine-readable benchmark results: collects scalar metrics and writes
/// them as `BENCH_<name>.json` in the working directory (override the
/// directory with $DNSGUARD_BENCH_DIR). One file per bench per run gives
/// CI a throughput trajectory across PRs without scraping stdout.
class JsonResultWriter {
 public:
  explicit JsonResultWriter(std::string bench_name)
      : name_(std::move(bench_name)) {}

  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    metrics_.emplace_back(key, buf);
  }
  void add(const std::string& key, std::uint64_t value) {
    metrics_.emplace_back(key, std::to_string(value));
  }

  /// Snapshots a metrics registry into the "counters" section. Call after
  /// the measurement window; last snapshot wins. A `prefix` (e.g. a sweep
  /// point like "rate_50k.") namespaces repeated snapshots instead.
  void add_counters(const obs::MetricsRegistry& registry,
                    const std::string& prefix = "") {
    for (const auto& [name, value] : registry.snapshot()) {
      char buf[64];
      if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
      } else {
        std::snprintf(buf, sizeof(buf), "%.6g", value);
      }
      counters_.emplace_back(prefix + name, buf);
    }
  }

  /// Attaches a pre-rendered JSON value (object/array) as a top-level
  /// section of the output file — e.g. a TimeSeriesSampler::to_json()
  /// dump under "timeseries". The value is emitted verbatim.
  void add_section(const std::string& key, std::string raw_json) {
    sections_.emplace_back(key, std::move(raw_json));
  }

  /// Writes the file; returns false (and stays silent) on IO failure so a
  /// read-only CWD never fails a benchmark run.
  bool write() const {
    std::string dir;
    if (const char* env = std::getenv("DNSGUARD_BENCH_DIR")) dir = env;
    std::string path =
        (dir.empty() ? "" : dir + "/") + "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {\n",
                 name_.c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "    \"%s\": %s%s\n", metrics_[i].first.c_str(),
                   metrics_[i].second.c_str(),
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"counters\": {\n");
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      std::fprintf(f, "    \"%s\": %s%s\n", counters_[i].first.c_str(),
                   counters_[i].second.c_str(),
                   i + 1 < counters_.size() ? "," : "");
    }
    std::fprintf(f, "  }");
    for (const auto& [key, raw] : sections_) {
      std::fprintf(f, ",\n  \"%s\": %s", key.c_str(), raw.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("[json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> counters_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Collects per-label cost-attribution reports for the "profile" JSON
/// section. A bench captures one report per measured configuration (e.g.
/// table3 captures "ns_name_hit" and "ns_name_miss") and attaches the
/// whole map via attach(); tools/flamegraph.py and tools/check_bench.py
/// consume the section.
class ProfileCollector {
 public:
  /// Snapshots the profiler under `label`. `measured_wall_ns` is the wall
  /// time of the measurement window the snapshot covers: it caps the
  /// report's attributed total (Profiler::report's `deflation`) and gives
  /// each stage a "share" field and the report a "root_share" coverage
  /// figure.
  void capture(const std::string& label, double measured_wall_ns) {
    if (!obs::prof::profiler.enabled()) return;
    entries_.emplace_back(
        label, obs::prof::profiler.report_json(measured_wall_ns, 4));
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Renders the {"label": <report>, ...} object.
  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += i == 0 ? "\n    \"" : ",\n    \"";
      out += entries_[i].first;
      out += "\": ";
      out += entries_[i].second;
    }
    out += "\n  }";
    return out;
  }

  /// Adds the "profile" section to `writer` (no-op when nothing was
  /// captured, so profiling stays strictly opt-in per bench).
  void attach(JsonResultWriter& writer) const {
    if (!empty()) writer.add_section("profile", to_json());
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

inline constexpr net::Ipv4Address kAnsIp{10, 1, 1, 254};
inline constexpr net::Ipv4Address kGuardIp{10, 1, 1, 253};
inline constexpr net::Ipv4Address kSubnetBase{10, 1, 1, 0};
inline constexpr net::Ipv4Address kComServerIp{10, 0, 0, 2};

enum class AnsKind { Bind, Simulator };

struct Testbed {
  sim::Simulator sim;
  std::unique_ptr<server::AuthoritativeServerNode> bind_ans;
  std::unique_ptr<server::AnsSimulatorNode> sim_ans;
  std::unique_ptr<guard::RemoteGuardNode> guard;
  std::vector<std::unique_ptr<workload::LrsSimulatorNode>> drivers;
  std::vector<std::unique_ptr<attack::SpoofedFloodNode>> attackers;

  sim::Node* ans_node() {
    return bind_ans ? static_cast<sim::Node*>(bind_ans.get())
                    : static_cast<sim::Node*>(sim_ans.get());
  }

  /// Builds the ANS. The BIND flavour serves a root-style delegation zone
  /// (answers are referrals with glue, like a root/TLD server) and a
  /// leaf host set; the simulator flavour answers everything at 110K/s.
  void make_ans(AnsKind kind,
                std::optional<std::uint32_t> ttl_override = std::nullopt) {
    if (kind == AnsKind::Bind) {
      server::AuthoritativeServerNode::Config ac;
      ac.address = kAnsIp;
      ac.ttl_override = ttl_override;
      bind_ans = std::make_unique<server::AuthoritativeServerNode>(
          sim, "bind-ans", ac);
      // Root-style zone: delegates com with glue (the NS-name dance's
      // restored question "com." earns a referral + glue), and also
      // hosts direct A records so PlainUdp / fabricated dances resolve.
      server::Zone root(dns::DomainName{});
      root.add_soa();
      root.add_ns(".", "a.root-servers.net.");
      root.add_a("a.root-servers.net.", kAnsIp);
      root.add_ns("com.", "a.gtld-servers.net.");
      root.add_a("a.gtld-servers.net.", kComServerIp);
      root.add_a("www.foo.com.", net::Ipv4Address(192, 0, 2, 80));
      bind_ans->add_zone(std::move(root));
    } else {
      sim_ans = std::make_unique<server::AnsSimulatorNode>(
          sim, "ans-sim",
          server::AnsSimulatorNode::Config{.address = kAnsIp});
    }
  }

  /// Installs the guard in front of the ANS. Limiters default to
  /// benchmark settings (never throttling the measured legitimate load);
  /// `tweak` can override anything.
  void make_guard(
      guard::Scheme scheme, double activation_threshold = 0.0,
      std::function<void(guard::RemoteGuardNode::Config&)> tweak = {},
      int subnet_prefix_len = 24) {
    guard::RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};
    gc.subnet_base = kSubnetBase;
    gc.r_y = 250;
    gc.scheme = scheme;
    gc.activation_threshold_rps = activation_threshold;
    gc.rl1.per_address_rate = 1e7;
    gc.rl1.per_address_burst = 1e6;
    gc.rl2.per_host_rate = 1e7;
    gc.rl2.per_host_burst = 1e6;
    // The load drivers pose as a single very fast client; the per-client
    // connection throttle is exercised by its own ablation bench instead.
    gc.proxy_conn_rate = 1e7;
    gc.proxy_conn_burst = 1e6;
    if (tweak) tweak(gc);
    guard = std::make_unique<guard::RemoteGuardNode>(sim, "guard", gc,
                                                     ans_node());
    guard->install(subnet_prefix_len);
  }

  /// Without a guard: route the ANS address directly (protection off and
  /// no firewall box in the path at all).
  void route_ans_directly() { sim.add_host_route(kAnsIp, ans_node()); }

  workload::LrsSimulatorNode* add_driver(
      workload::DriveMode mode, int concurrency,
      net::Ipv4Address address = net::Ipv4Address(10, 0, 1, 1),
      SimDuration timeout = milliseconds(10), SimDuration think = {},
      SimDuration per_packet_cost = {}) {
    workload::LrsSimulatorNode::Config dc;
    dc.address = address;
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = mode;
    dc.concurrency = concurrency;
    dc.timeout = timeout;
    dc.think_time = think;
    dc.per_packet_cost = per_packet_cost;
    auto node = std::make_unique<workload::LrsSimulatorNode>(
        sim, "driver-" + address.to_string(), dc);
    sim.add_host_route(address, node.get());
    drivers.push_back(std::move(node));
    return drivers.back().get();
  }

  attack::SpoofedFloodNode* add_attacker(
      double rate, net::Ipv4Address address = net::Ipv4Address(10, 9, 9, 9),
      attack::SpoofedFloodNode::SpoofConfig spoof = {}) {
    auto node = std::make_unique<attack::SpoofedFloodNode>(
        sim, "attacker",
        attack::FloodNodeBase::Config{.own_address = address,
                                      .target = {kAnsIp, net::kDnsPort},
                                      .rate = rate,
                                      .qname_base = "www.foo.com."},
        spoof);
    attackers.push_back(std::move(node));
    return attackers.back().get();
  }

  Testbed() { sim.set_default_latency(microseconds(200)); }  // 0.4 ms RTT

  /// Observability knobs for the measurement window. Journeys and the
  /// sampler run on the virtual clock and charge no simulated CPU, so
  /// enabling them cannot move throughput/latency results.
  bool enable_journeys = false;
  /// Nonzero: sample registry counters every this often (sim time) during
  /// the measurement window; dump via sim.timeseries().to_json().
  SimDuration timeseries_window{};
  /// Called right after the sampler starts — the place to bind an
  /// obs::AttackMonitor (its series indices resolve against the running
  /// sampler).
  std::function<void()> on_sampling_started;
  /// Nonzero: attackers fire this long *after* the measurement window
  /// opens instead of during warmup — gives anomaly detection a clean
  /// baseline followed by a mid-window onset.
  SimDuration attacker_start_delay{};
  /// Enable the wall-clock cost-attribution profiler for the measurement
  /// window (reset after warmup, so warmup samples never pollute the
  /// report). Unlike journeys/timeseries this reads *host* time: virtual
  /// results stay identical, but host throughput pays the probes' ~1%.
  /// Probes arm for the first obs::prof::kSampleBlock events of every
  /// kSampleStride; ProfileCollector::capture() scales the report to the
  /// window's event count and to `last_wall_ns`.
  bool enable_profiling = false;
  /// Wall nanoseconds spent inside the last measure() window — the
  /// denominator for ProfileCollector::capture() shares.
  double last_wall_ns = 0.0;

  /// Warm up, reset stats, measure for `window`. Returns the window.
  SimDuration measure(SimDuration warmup, SimDuration window) {
    if (enable_journeys) sim.journeys().enable();
    for (auto& d : drivers) d->start();
    for (auto& a : attackers) {
      if (attacker_start_delay.ns > 0) {
        attack::SpoofedFloodNode* ap = a.get();
        sim.schedule_in(warmup + attacker_start_delay,
                        [ap] { ap->start(); });
      } else {
        a->start();
      }
    }
    sim.run_for(warmup);
    // Zero every cell attached to the simulator's registry (guard, TCP
    // proxy, limiters, drop reasons, ...): the measurement window starts
    // from a clean metric slate.
    sim.metrics().reset_values();
    if (bind_ans) bind_ans->reset_stats();
    if (sim_ans) sim_ans->reset_stats();
    if (guard) guard->reset_stats();
    // Start sampling only now: windows then hold deltas of the measured
    // load, not warmup remnants.
    if (timeseries_window.ns > 0) {
      sim.start_timeseries(timeseries_window);
      if (on_sampling_started) on_sampling_started();
    }
    if (enable_profiling) {
      if (!obs::prof::profiler.enabled()) obs::prof::profiler.enable();
      obs::prof::profiler.reset();
    }
    const WallClock::time_point wall_t0 = wall_now();
    sim.run_for(window);
    last_wall_ns = wall_seconds_since(wall_t0) * 1e9;
    if (timeseries_window.ns > 0) sim.stop_timeseries();
    for (auto& a : attackers) a->stop();
    for (auto& d : drivers) d->stop();
    return window;
  }
};

}  // namespace dnsguard::bench
