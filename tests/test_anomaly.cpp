// Online attack detection: AnomalyDetector state machine, AttackMonitor
// wired onto a live sampler, FlightRecorder dumps, and the end-to-end
// acceptance scenario — a spoofed flood starting mid-run must be flagged
// within two sampling windows, and an attack-free control run must raise
// zero alerts.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/attackers.h"
#include "guard/remote_guard.h"
#include "obs/anomaly.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "obs_test_support.h"
#include "workload/lrs_driver.h"

namespace dnsguard {
namespace {

using obs::AnomalyConfig;
using obs::AnomalyDetector;
using obs::AttackMonitor;
using obs::FlightRecorder;
using Signal = obs::AnomalyDetector::Signal;

TEST(AnomalyDetector, QuietSeriesNeverFires) {
  AnomalyDetector det;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(det.update(10.0), Signal::kNone) << "window " << i;
  }
  EXPECT_FALSE(det.in_anomaly());
  EXPECT_NEAR(det.mean(), 10.0, 1e-9);
}

TEST(AnomalyDetector, WarmupSuppressesEarlySpikes) {
  AnomalyConfig cfg;
  cfg.warmup_windows = 3;
  AnomalyDetector det(cfg);
  // A spike inside warmup must not fire — there is no baseline yet.
  EXPECT_EQ(det.update(1e6), Signal::kNone);
  EXPECT_EQ(det.update(1e6), Signal::kNone);
  EXPECT_FALSE(det.in_anomaly());
}

TEST(AnomalyDetector, OnsetOnStepJumpAfterBaseline) {
  AnomalyDetector det;
  for (int i = 0; i < 10; ++i) det.update(100.0);
  // First flood window: well past mean + k*dev.
  EXPECT_EQ(det.update(50000.0), Signal::kOnset);
  EXPECT_TRUE(det.in_anomaly());
  // Staying hot raises no further transition.
  EXPECT_EQ(det.update(50000.0), Signal::kNone);
  EXPECT_TRUE(det.in_anomaly());
}

TEST(AnomalyDetector, BaselineFrozenDuringAnomaly) {
  AnomalyDetector det;
  for (int i = 0; i < 10; ++i) det.update(100.0);
  double mean_before = det.mean();
  det.update(50000.0);
  ASSERT_TRUE(det.in_anomaly());
  for (int i = 0; i < 50; ++i) det.update(50000.0);
  // A sustained flood must not be absorbed into "normal".
  EXPECT_NEAR(det.mean(), mean_before, 1e-9);
}

TEST(AnomalyDetector, OffsetNeedsConsecutiveQuietWindows) {
  AnomalyConfig cfg;
  cfg.offset_consecutive = 2;
  AnomalyDetector det(cfg);
  for (int i = 0; i < 10; ++i) det.update(100.0);
  ASSERT_EQ(det.update(50000.0), Signal::kOnset);
  // One quiet window is not enough (hysteresis)...
  EXPECT_EQ(det.update(100.0), Signal::kNone);
  EXPECT_TRUE(det.in_anomaly());
  // ...and a relapse resets the quiet streak.
  EXPECT_EQ(det.update(50000.0), Signal::kNone);
  EXPECT_EQ(det.update(100.0), Signal::kNone);
  // Second consecutive quiet window clears.
  EXPECT_EQ(det.update(100.0), Signal::kOffset);
  EXPECT_FALSE(det.in_anomaly());
}

TEST(AnomalyDetector, OnsetConsecutiveRequiresStreak) {
  AnomalyConfig cfg;
  cfg.onset_consecutive = 2;
  AnomalyDetector det(cfg);
  for (int i = 0; i < 10; ++i) det.update(100.0);
  // A single noisy window must not raise an alert...
  EXPECT_EQ(det.update(50000.0), Signal::kNone);
  EXPECT_FALSE(det.in_anomaly());
  EXPECT_EQ(det.update(100.0), Signal::kNone);
  // ...but two consecutive hot windows do.
  EXPECT_EQ(det.update(50000.0), Signal::kNone);
  EXPECT_EQ(det.update(50000.0), Signal::kOnset);
  EXPECT_TRUE(det.in_anomaly());
}

TEST(AnomalyDetector, ResetForgetsEverything) {
  AnomalyDetector det;
  for (int i = 0; i < 10; ++i) det.update(100.0);
  det.update(50000.0);
  ASSERT_TRUE(det.in_anomaly());
  det.reset();
  EXPECT_FALSE(det.in_anomaly());
  EXPECT_EQ(det.windows_seen(), 0);
  // Back in warmup: an immediate spike stays silent.
  EXPECT_EQ(det.update(1e6), Signal::kNone);
}

SimTime at(std::int64_t ms) { return SimTime{} + milliseconds(ms); }

TEST(AttackMonitor, RaisesGaugeAndRecordsEventsFromSampler) {
  obs::MetricsRegistry reg;
  obs::Counter drops;
  reg.attach_counter("guard.spoofs_dropped", drops);
  obs::TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(100), 64);

  AttackMonitor mon;
  mon.watch("guard.spoofs_dropped");
  mon.watch("no.such.series");  // reported by bind, then left out
  EXPECT_EQ(mon.bind(ts, reg), std::vector<std::string>{"no.such.series"});
  EXPECT_EQ(mon.watched(), 1u);

  const obs::Gauge* g = reg.find_gauge("anomaly.under_attack");
  ASSERT_NE(g, nullptr);

  int onset_hooks = 0;
  mon.set_on_onset([&](const AttackMonitor::Event& e) {
    onset_hooks++;
    EXPECT_TRUE(e.onset);
    EXPECT_EQ(e.series, "guard.spoofs_dropped");
  });

  // Quiet baseline, then a flood, then quiet again.
  std::int64_t t = 0;
  for (int i = 0; i < 10; ++i) {
    drops += 2;
    ts.sample(at(t += 100));
  }
  EXPECT_FALSE(mon.under_attack());
  for (int i = 0; i < 5; ++i) {
    drops += 5000;
    ts.sample(at(t += 100));
  }
  EXPECT_TRUE(mon.under_attack());
  EXPECT_EQ(g->value(), 1);
  for (int i = 0; i < 5; ++i) {
    drops += 2;
    ts.sample(at(t += 100));
  }
  EXPECT_FALSE(mon.under_attack());
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(g->max(), 1);

  ASSERT_EQ(mon.events().size(), 2u);
  EXPECT_TRUE(mon.events()[0].onset);
  EXPECT_FALSE(mon.events()[1].onset);
  EXPECT_EQ(onset_hooks, 1);
  std::string json = mon.events_json(2);
  EXPECT_NE(json.find("guard.spoofs_dropped"), std::string::npos) << json;
  EXPECT_NE(json.find("\"onset\": true"), std::string::npos) << json;
}

TEST(FlightRecorder, DumpWritesSequencedFiles) {
  FlightRecorder rec;
  rec.set_output_dir(::testing::TempDir());
  rec.add_section("metrics", [] { return std::string("{\"a\": 1}"); });
  std::string path = rec.dump("unit", at(1500));
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(rec.dumps_written(), 1u);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  char buf[256] = {};
  std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string doc(buf, n);
  EXPECT_NE(doc.find("\"label\": \"unit\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"sim_time_s\": 1.5"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"metrics\": {\"a\": 1}"), std::string::npos) << doc;
  // A second dump gets a fresh sequence number, never overwriting.
  std::string path2 = rec.dump("unit", at(2000));
  EXPECT_NE(path2, path);
  EXPECT_EQ(rec.dumps_written(), 2u);
}

// --- end-to-end: detector flags a mid-run spoofed flood ---

using guard::RemoteGuardNode;
using guard::Scheme;
using net::Ipv4Address;
using workload::DriveMode;
using workload::LrsSimulatorNode;

constexpr Ipv4Address kAnsIp(10, 1, 1, 254);
constexpr Ipv4Address kGuardIp(10, 1, 1, 253);

struct DetectionBed {
  sim::Simulator sim;
  server::AnsSimulatorNode ans{sim, "ans", {.address = kAnsIp}};
  std::unique_ptr<RemoteGuardNode> guard;
  std::unique_ptr<LrsSimulatorNode> driver;
  AttackMonitor monitor;

  DetectionBed() {
    RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.protected_zone = dns::DomainName{};
    gc.subnet_base = Ipv4Address(10, 1, 1, 0);
    gc.scheme = Scheme::ModifiedDns;
    // Generous limiter rates: this scenario studies detection, not
    // throttling, so the only drops should be bad-cookie ones.
    gc.rl1.per_address_rate = 1e7;
    gc.rl1.per_address_burst = 1e6;
    gc.rl2.per_host_rate = 1e7;
    gc.rl2.per_host_burst = 1e6;
    guard = std::make_unique<RemoteGuardNode>(sim, "guard", gc, &ans);
    guard->install();

    LrsSimulatorNode::Config dc;
    dc.address = Ipv4Address(10, 0, 1, 1);
    dc.target = {kAnsIp, net::kDnsPort};
    dc.mode = DriveMode::ModifiedHit;
    dc.concurrency = 8;
    driver = std::make_unique<LrsSimulatorNode>(sim, "driver", dc);
    sim.add_host_route(dc.address, driver.get());
  }

  /// Runs legitimate traffic for 1.5 s with 100 ms sampling windows; if
  /// `flood_rate` > 0, a spoofed flood starts at t = 500 ms. Returns the
  /// flood start time.
  SimTime run(double flood_rate) {
    std::unique_ptr<attack::SpoofedFloodNode> flood;
    if (flood_rate > 0) {
      flood = std::make_unique<attack::SpoofedFloodNode>(
          sim, "flood",
          attack::FloodNodeBase::Config{
              .own_address = Ipv4Address(10, 9, 9, 9),
              .target = {kAnsIp, net::kDnsPort},
              .rate = flood_rate},
          attack::SpoofedFloodNode::SpoofConfig{.random_txt_cookie = true});
    }
    driver->start();
    sim.start_timeseries(milliseconds(100));
    monitor.watch("guard.spoofs_dropped");
    monitor.watch("guard.drop.bad_cookie");
    EXPECT_TRUE(monitor.bind(sim.timeseries(), sim.metrics()).empty());
    SimTime flood_start = sim.now() + milliseconds(500);
    if (flood) {
      sim.schedule_in(milliseconds(500), [&flood] { flood->start(); });
    }
    sim.run_for(milliseconds(1500));
    if (flood) flood->stop();
    driver->stop();
    sim.stop_timeseries();
    return flood_start;
  }
};

TEST(AttackDetectionEndToEnd, OnsetWithinTwoWindowsOfFloodStart) {
  DetectionBed bed;
  testing_support::arm_failure_dump([&](const std::string& test) {
    bed.sim.flight_recorder().dump(test, bed.sim.now());
  });
  SimTime flood_start = bed.run(/*flood_rate=*/30000);

  ASSERT_FALSE(bed.monitor.events().empty()) << bed.monitor.events_json();
  const AttackMonitor::Event& first = bed.monitor.events().front();
  EXPECT_TRUE(first.onset);
  // Acceptance criterion: detection within 2 sampling windows of onset.
  EXPECT_LE(first.at.ns, (flood_start + milliseconds(200)).ns)
      << bed.monitor.events_json();
  EXPECT_GT(bed.guard->guard_stats().spoofs_dropped, 10000u);
  // Legitimate traffic kept flowing throughout.
  EXPECT_GT(bed.driver->driver_stats().completed, 1000u);

  // Satellite: during the attack every traced drop carries a reason —
  // a kDrop entry tagged kNone means a drop site forgot its taxonomy.
  std::size_t drops_traced = 0;
  for (const auto& [name, ring] : bed.sim.trace_rings()) {
    for (const obs::TraceEntry& e : ring->entries()) {
      if (e.event != obs::TraceEvent::kDrop) continue;
      drops_traced++;
      EXPECT_NE(e.reason, obs::DropReason::kNone)
          << name << ": " << e.to_string();
    }
  }
  EXPECT_GT(drops_traced, 0u);  // the flood must have left drop traces

  // Counter-level half of the audit: every "*.drop.<reason>" counter the
  // registry exports must carry a real taxonomy suffix. A ".drop.none"
  // cell existing at all means a DropCounters::bind() started exporting
  // the filler reason; a suffix outside the enum means a site invented an
  // ad-hoc name instead of extending obs::DropReason.
  std::size_t drop_counters_seen = 0;
  for (const std::string& name : bed.sim.metrics().counter_names()) {
    const std::size_t pos = name.rfind(".drop.");
    if (pos == std::string::npos) continue;
    drop_counters_seen++;
    const std::string suffix = name.substr(pos + 6);
    EXPECT_NE(suffix, "none") << name;
    bool known = false;
    for (std::size_t r = 1; r < obs::kDropReasonCount; ++r) {
      if (suffix == obs::drop_reason_name(static_cast<obs::DropReason>(r))) {
        known = true;
        break;
      }
    }
    EXPECT_TRUE(known) << name << " uses a suffix outside the DropReason enum";
  }
  EXPECT_GT(drop_counters_seen, 0u);
}

TEST(AttackDetectionEndToEnd, AttackFreeControlRaisesNoAlerts) {
  DetectionBed bed;
  bed.run(/*flood_rate=*/0);
  EXPECT_TRUE(bed.monitor.events().empty()) << bed.monitor.events_json();
  EXPECT_FALSE(bed.monitor.under_attack());
  const obs::Gauge* g = bed.sim.metrics().find_gauge("anomaly.under_attack");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->max(), 0);
}

// --- Flash-crowd discrimination -------------------------------------------
//
// Shared scaffolding: a registry with guard-shaped counters, a sampler
// over all of them, and a monitor watching offered load with the
// discriminator wired to the drop-taxonomy and first-contact series.
struct DiscriminationBed {
  obs::Counter requests;
  obs::Counter drops;
  obs::Counter inserts;
  obs::MetricsRegistry reg;
  obs::TimeSeriesSampler ts;
  AttackMonitor mon;
  std::int64_t t = 0;

  DiscriminationBed() {
    reg.attach_counter("guard.requests_seen", requests);
    reg.attach_counter("guard.spoofs_dropped", drops);
    reg.attach_counter("guard.shard0.rl2.table.inserts", inserts);
    ts.start(reg, at(0), milliseconds(100), 64);
    mon.watch("guard.requests_seen");
    obs::DiscriminatorConfig disc;
    disc.malicious_series = {"guard.spoofs_dropped"};
    disc.load_series = {"guard.requests_seen"};
    disc.source_series = {"guard.shard0.rl2.table.inserts"};
    disc.attack_mix_threshold = 0.5;
    mon.set_discriminator(disc);
    EXPECT_TRUE(mon.bind(ts, reg).empty());
    // Steady baseline past warmup: 1000 requests/window, no drops.
    for (int i = 0; i < 6; ++i) window(1000, 0, 10);
  }

  void window(std::uint64_t load, std::uint64_t malicious,
              std::uint64_t fresh_sources) {
    requests += load;
    drops += malicious;
    inserts += fresh_sources;
    ts.sample(at(t += 100));
  }
};

TEST(AttackMonitor, FlashCrowdSurgeRaisesNoAttackOnset) {
  DiscriminationBed bed;
  // A 5x legitimate surge: lots of new sources, none of them dropped.
  for (int i = 0; i < 3; ++i) bed.window(5000, 0, 800);

  EXPECT_EQ(bed.mon.onsets(AttackMonitor::Kind::kAttack), 0u)
      << bed.mon.events_json();
  EXPECT_EQ(bed.mon.onsets(AttackMonitor::Kind::kFlashCrowd), 1u)
      << bed.mon.events_json();
  EXPECT_FALSE(bed.mon.under_attack());
  EXPECT_TRUE(bed.mon.in_flash_crowd());

  const AttackMonitor::Event& e = bed.mon.events().front();
  EXPECT_TRUE(e.onset);
  EXPECT_EQ(e.kind, AttackMonitor::Kind::kFlashCrowd);
  EXPECT_NEAR(e.malicious_mix, 0.0, 1e-9);
  EXPECT_NEAR(e.source_growth, 800.0, 1e-9);

  // The dedicated gauge tracks the flash, not the attack alarm.
  const obs::Gauge* flash = bed.reg.find_gauge("anomaly.flash_crowd");
  ASSERT_NE(flash, nullptr);
  EXPECT_EQ(flash->value(), 1);
  const obs::Gauge* attack = bed.reg.find_gauge("anomaly.under_attack");
  ASSERT_NE(attack, nullptr);
  EXPECT_EQ(attack->max(), 0);

  // Surge subsides: the offset event carries its onset's classification.
  for (int i = 0; i < 3; ++i) bed.window(1000, 0, 10);
  EXPECT_FALSE(bed.mon.in_flash_crowd());
  ASSERT_EQ(bed.mon.events().size(), 2u);
  EXPECT_FALSE(bed.mon.events()[1].onset);
  EXPECT_EQ(bed.mon.events()[1].kind, AttackMonitor::Kind::kFlashCrowd);
  EXPECT_NE(bed.mon.events_json().find("\"kind\": \"flash_crowd\""),
            std::string::npos)
      << bed.mon.events_json();
}

TEST(AttackMonitor, EqualRateSpoofedFloodClassifiesAsAttack) {
  DiscriminationBed bed;
  // Same 5x aggregate surge, but the guard rejects most of it: the
  // drop-taxonomy mix (3600/5000 = 0.72) exceeds the 0.5 threshold.
  for (int i = 0; i < 3; ++i) bed.window(5000, 3600, 800);

  EXPECT_EQ(bed.mon.onsets(AttackMonitor::Kind::kAttack), 1u)
      << bed.mon.events_json();
  EXPECT_EQ(bed.mon.onsets(AttackMonitor::Kind::kFlashCrowd), 0u)
      << bed.mon.events_json();
  EXPECT_TRUE(bed.mon.under_attack());
  EXPECT_FALSE(bed.mon.in_flash_crowd());

  const AttackMonitor::Event& e = bed.mon.events().front();
  EXPECT_EQ(e.kind, AttackMonitor::Kind::kAttack);
  EXPECT_NEAR(e.malicious_mix, 0.72, 1e-9);

  const obs::Gauge* attack = bed.reg.find_gauge("anomaly.under_attack");
  ASSERT_NE(attack, nullptr);
  EXPECT_EQ(attack->value(), 1);
}

TEST(AttackMonitor, WithoutDiscriminatorEveryOnsetIsAttack) {
  // Legacy binary alarm: no discriminator configured, so even a clean
  // surge (nothing dropped) classifies as an attack.
  obs::MetricsRegistry reg;
  obs::Counter requests;
  reg.attach_counter("guard.requests_seen", requests);
  obs::TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(100), 64);
  AttackMonitor mon;
  mon.watch("guard.requests_seen");
  EXPECT_TRUE(mon.bind(ts, reg).empty());

  std::int64_t t = 0;
  for (int i = 0; i < 6; ++i) {
    requests += 1000;
    ts.sample(at(t += 100));
  }
  for (int i = 0; i < 3; ++i) {
    requests += 5000;
    ts.sample(at(t += 100));
  }
  EXPECT_EQ(mon.onsets(AttackMonitor::Kind::kAttack), 1u)
      << mon.events_json();
  EXPECT_TRUE(mon.under_attack());
  EXPECT_FALSE(mon.in_flash_crowd());
  EXPECT_EQ(reg.find_gauge("anomaly.flash_crowd"), nullptr);
}

TEST(AttackMonitor, BindReportsDiscriminatorSeriesTheSamplerLacks) {
  // A misspelled series used to vanish at bind: the discriminator then
  // summed nothing and reported zero source growth without any failure.
  obs::MetricsRegistry reg;
  obs::Counter requests, drops, inserts;
  reg.attach_counter("guard.requests_seen", requests);
  reg.attach_counter("guard.spoofs_dropped", drops);
  reg.attach_counter("guard.shard0.rl1.table.inserts", inserts);
  obs::TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(100), 64);
  AttackMonitor mon;
  mon.watch("guard.requests_seen");
  obs::DiscriminatorConfig disc;
  disc.malicious_series = {"guard.spoofs_dropped"};
  disc.load_series = {"guard.requests_seen"};
  disc.source_series = {"guard.shard0.rl1.table.inserts",
                        "guard.rl1.table.inserts"};
  mon.set_discriminator(disc);
  EXPECT_EQ(mon.bind(ts, reg),
            std::vector<std::string>{"guard.rl1.table.inserts"});
  EXPECT_EQ(mon.watched(), 1u);
}

}  // namespace
}  // namespace dnsguard
