// fig_flashcrowd — flash-crowd vs attack discrimination at Internet scale.
//
// The classic DNS-defense failure mode: a surge of *legitimate* queries
// (breaking news) looks exactly like a flood to a rate detector. This
// bench drives the aggregate client-population engine (millions of LRS
// clients behind one node: Zipf popularity + resolver-cache absorption,
// lognormal per-client rates, empirical RTTs, diurnal load) through the
// modified-DNS guard and asks the AttackMonitor's discriminator to call
// three scenarios correctly:
//
//   flash    — a 4x legitimate surge from a fresh client cohort;
//              must classify flash_crowd, and NEVER attack.
//   flood    — a prefix-hopping spoofed flood (Whac-A-Mole attacker);
//              must classify attack within 2 detector windows.
//   blended  — flash crowd and flood simultaneously; the attack must
//              still be called (malicious mix dominates).
//
// Plus a 10M-client diurnal scenario proving the engine's hybrid fidelity
// keeps Internet-scale populations laptop-runnable and bit-for-bit
// deterministic across reruns.
//
// The classification-quality numbers are asserted in-binary (a wrong
// verdict fails the bench, and CI) and exported to BENCH_fig_flashcrowd
// .json, where the committed baseline gates them like any other bench.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/wire_digest.h"
#include "obs/anomaly.h"
#include "workload/population.h"

using namespace dnsguard;
using namespace dnsguard::bench;
using workload::TablePrinter;

namespace {

void require(bool ok, const char* msg) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", msg);
  std::exit(1);
}

struct Durations {
  SimDuration warmup = quick(seconds(1), milliseconds(400));
  SimDuration window = quick(seconds(4), milliseconds(1200));
  SimDuration sample = quick(milliseconds(200), milliseconds(60));
  /// The flash crowd and/or flood switch on mid-window.
  [[nodiscard]] SimTime event_at() const {
    return SimTime{warmup.ns + window.ns / 2};
  }
};

struct ScenarioSpec {
  bool with_flash = false;
  bool with_flood = false;
  bool with_monitor = true;
  double base_rate = 20e3;
  double flood_rate = 150e3;
  std::uint64_t num_clients = 1000000;
  SimDuration diurnal_period{};
};

struct ScenarioResult {
  std::uint64_t attack_onsets = 0;
  std::uint64_t flash_onsets = 0;
  double first_attack_onset_s = -1.0;
  double goodput_per_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t offered = 0;
  std::uint64_t sent = 0;
  std::uint64_t flash_sent = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t digest = 0;  // every packet the simulator carried
  bool under_attack_at_end = false;
  std::string events_json = "[]";
};

ScenarioResult run_scenario(const ScenarioSpec& spec, const Durations& d,
                            JsonResultWriter* json = nullptr,
                            const std::string& prefix = "",
                            ProfileCollector* prof = nullptr,
                            const std::string& prof_label = "") {
  WireDigest wire;  // declared first, so it outlives the bed's tap
  Testbed bed;
  bed.sim.set_tap([&wire](SimTime t, const sim::Node*, const sim::Node*,
                          const net::Packet& p) { wire.add(t, p); });
  bed.make_ans(AnsKind::Simulator);
  // Internet-scale guard sizing: the default 64K-host RL2 table (which
  // refuses new hosts at capacity, §III.G) is sized for one site, not
  // for millions of distinct legitimate resolvers — at 10M clients it
  // would start refusing real traffic mid-run.
  bed.make_guard(guard::Scheme::ModifiedDns, 0.0,
                 [](guard::RemoteGuardNode::Config& gc) {
                   gc.rl1.max_buckets = 1 << 20;
                   gc.rl2.max_hosts = 1 << 20;
                 });

  workload::ClientPopulationNode::Config pc;
  pc.population.num_clients = spec.num_clients;
  pc.population.base_rate = spec.base_rate;
  pc.population.diurnal_period = spec.diurnal_period;
  pc.population.prefix_base = net::Ipv4Address(100, 0, 0, 0);
  pc.population.prefix_len = 8;
  pc.target = {kAnsIp, net::kDnsPort};
  if (spec.with_flash) {
    workload::FlashCrowdEvent e;
    e.start = d.event_at();
    e.ramp = quick(milliseconds(500), milliseconds(150));
    e.hold = quick(seconds(2), milliseconds(600));
    e.decay = quick(milliseconds(500), milliseconds(150));
    e.peak_multiplier = 4.0;
    e.new_source_fraction = 0.7;
    e.cohort_clients = 100000;
    e.hot_rank = 5;
    pc.population.flash_events.push_back(e);
  }
  workload::ClientPopulationNode population(bed.sim, "population", pc);

  std::unique_ptr<attack::PrefixHopFloodNode> flood;
  if (spec.with_flood) {
    flood = std::make_unique<attack::PrefixHopFloodNode>(
        bed.sim, "prefix-hop-flood",
        attack::FloodNodeBase::Config{
            .own_address = net::Ipv4Address(10, 9, 9, 9),
            .target = {kAnsIp, net::kDnsPort},
            .rate = spec.flood_rate,
            .qname_base = "www.foo.com."},
        attack::PrefixHopFloodNode::HopConfig{
            .prefix_base = net::Ipv4Address(10, 200, 0, 0),
            .prefix_span = 1 << 12,
            .num_prefixes = 32,
            .hop_interval = quick(milliseconds(500), milliseconds(150)),
            .random_txt_cookie = true});
    attack::PrefixHopFloodNode* f = flood.get();
    bed.sim.schedule_in(d.event_at() - SimTime{}, [f] { f->start(); });
  }

  // The discriminator: an onset is an attack when the guard's
  // drop-taxonomy work dominates the offered load; a clean-verifying
  // surge is a flash crowd. Source growth rides on events for forensics.
  // The deviation floor sits well above Poisson noise on the steady
  // per-window load (~sqrt(1000)≈30) so only real surges fire.
  obs::AnomalyConfig acfg;
  acfg.dev_floor = 50.0;
  obs::AttackMonitor monitor(acfg);
  monitor.watch("guard.requests_seen");
  obs::DiscriminatorConfig disc;
  disc.malicious_series = {"guard.spoofs_dropped", "guard.rl1_throttled",
                           "guard.rl2_throttled", "guard.malformed"};
  disc.load_series = {"guard.requests_seen"};
  disc.source_series = {"guard.shard0.rl1.table.inserts",
                        "guard.shard0.rl2.table.inserts"};
  disc.attack_mix_threshold = 0.4;
  monitor.set_discriminator(disc);

  population.start();
  bed.sim.run_for(d.warmup);
  bed.sim.metrics().reset_values();
  population.reset_stats();
  bed.guard->reset_stats();
  bed.sim_ans->reset_stats();
  bed.sim.start_timeseries(d.sample);
  if (spec.with_monitor) {
    const std::vector<std::string> missing =
        monitor.bind(bed.sim.timeseries(), bed.sim.metrics());
    for (const std::string& name : missing) {
      std::fprintf(stderr, "unknown monitor series: %s\n", name.c_str());
    }
    require(missing.empty(), "monitor series missing from the sampler");
  }
  // This bench drives the window by hand (no bed.measure()), so the
  // cost-attribution capture is wired by hand too. Profiling reads only
  // the host clock, so the digest-determinism asserts are unaffected.
  auto prof_t0 = wall_now();
  if (prof != nullptr) {
    obs::prof::profiler.enable();
    obs::prof::profiler.reset();
    prof_t0 = wall_now();
  }
  bed.sim.run_for(d.window);
  if (prof != nullptr) {
    prof->capture(prof_label, wall_seconds_since(prof_t0) * 1e9);
    obs::prof::profiler.disable();
  }
  bed.sim.stop_timeseries();

  ScenarioResult r;
  const workload::PopulationStats& ps = population.population_stats();
  r.completed = ps.completed.value();
  r.offered = ps.offered.value();
  r.sent = ps.sent.value();
  r.flash_sent = ps.flash_sent.value();
  r.cache_hits = ps.cache_hits.value();
  r.goodput_per_s = static_cast<double>(r.completed) / d.window.seconds();
  r.digest = wire.value();
  r.under_attack_at_end = monitor.under_attack();
  for (const auto& e : monitor.events()) {
    if (!e.onset) continue;
    if (e.kind == obs::AttackMonitor::Kind::kAttack) {
      ++r.attack_onsets;
      const double t = static_cast<double>(e.at.ns) / 1e9;
      if (r.first_attack_onset_s < 0) r.first_attack_onset_s = t;
    } else {
      ++r.flash_onsets;
    }
  }
  r.events_json = monitor.events_json(2);

  if (json != nullptr && !prefix.empty()) {
    json->add(prefix + ".attack_onsets", r.attack_onsets);
    json->add(prefix + ".flash_onsets", r.flash_onsets);
    json->add(prefix + ".goodput_per_s", r.goodput_per_s);
    json->add_counters(bed.sim.metrics(), prefix + ".");
  }
  return r;
}

/// Windows elapsed between the event switching on and the onset firing
/// (onsets land on sampler-window boundaries, so this is exact).
double onset_windows(const ScenarioResult& r, const Durations& d) {
  if (r.first_attack_onset_s < 0) return 1e9;
  const double event_s = static_cast<double>(d.event_at().ns) / 1e9;
  return (r.first_attack_onset_s - event_s) /
         (static_cast<double>(d.sample.ns) / 1e9);
}

}  // namespace

int main() {
  std::printf(
      "FIG FLASHCROWD: flash-crowd vs spoofed-flood discrimination over "
      "the aggregate client-population engine.\n"
      "A legitimate 4x surge must NOT raise an attack onset; a "
      "prefix-hopping spoofed flood must, within 2 detector windows.\n\n");

  Durations d;
  JsonResultWriter json("fig_flashcrowd");

  // --- the three discrimination scenarios ----------------------------------
  ScenarioSpec flash_spec;
  flash_spec.with_flash = true;
  ScenarioResult flash = run_scenario(flash_spec, d, &json, "flash");
  json.add_section("anomaly_events_flash", flash.events_json);

  // The no-detector control: same scenario, monitor never bound. The
  // monitor is a pure observer on the virtual clock, so legitimate
  // goodput must stay within 10% (in fact: identical).
  ScenarioSpec control_spec = flash_spec;
  control_spec.with_monitor = false;
  ScenarioResult control = run_scenario(control_spec, d);
  json.add("flash.goodput_control_per_s", control.goodput_per_s);

  ScenarioSpec flood_spec;
  flood_spec.with_flood = true;
  ScenarioResult flood = run_scenario(flood_spec, d, &json, "flood");
  json.add_section("anomaly_events_flood", flood.events_json);

  // Cost attribution for the heaviest scenario: flash crowd + flood at
  // once, the population engine and guard both at full tilt.
  ProfileCollector prof;
  ScenarioSpec blended_spec;
  blended_spec.with_flash = true;
  blended_spec.with_flood = true;
  ScenarioResult blended =
      run_scenario(blended_spec, d, &json, "blended", &prof, "blended");
  json.add_section("anomaly_events_blended", blended.events_json);

  TablePrinter table({"scenario", "goodput(K/s)", "attack_onsets",
                      "flash_onsets", "onset_delay(win)"},
                     18);
  table.print_header();
  table.print_row({"flash", TablePrinter::kilo(flash.goodput_per_s),
                   TablePrinter::num(flash.attack_onsets, 0),
                   TablePrinter::num(flash.flash_onsets, 0), "-"});
  table.print_row({"flood", TablePrinter::kilo(flood.goodput_per_s),
                   TablePrinter::num(flood.attack_onsets, 0),
                   TablePrinter::num(flood.flash_onsets, 0),
                   TablePrinter::num(onset_windows(flood, d), 1)});
  table.print_row({"blended", TablePrinter::kilo(blended.goodput_per_s),
                   TablePrinter::num(blended.attack_onsets, 0),
                   TablePrinter::num(blended.flash_onsets, 0),
                   TablePrinter::num(onset_windows(blended, d), 1)});

  // --- in-binary acceptance asserts ----------------------------------------
  require(flash.attack_onsets == 0,
          "flash crowd raised a false attack onset");
  require(flash.flash_onsets >= 1,
          "flash crowd surge was not detected as flash_crowd");
  require(flood.attack_onsets >= 1, "spoofed flood raised no attack onset");
  require(onset_windows(flood, d) <= 2.0,
          "flood onset later than 2 detector windows");
  require(blended.attack_onsets >= 1,
          "blended scenario raised no attack onset");
  require(onset_windows(blended, d) <= 2.0,
          "blended onset later than 2 detector windows");
  const double dev = std::abs(flash.goodput_per_s - control.goodput_per_s);
  require(dev <= 0.1 * control.goodput_per_s,
          "goodput with detector deviates >10% from no-detector control");

  // Precision/recall over the attack class: the flood and blended runs
  // must classify attack (2 positives), the flash run must not (any
  // attack onset there is a false positive).
  const double tp = (flood.attack_onsets > 0 ? 1.0 : 0.0) +
                    (blended.attack_onsets > 0 ? 1.0 : 0.0);
  const double fp = flash.attack_onsets > 0 ? 1.0 : 0.0;
  const double precision = tp + fp > 0 ? tp / (tp + fp) : 1.0;
  const double recall = tp / 2.0;
  json.add("detector.precision", precision);
  json.add("detector.recall", recall);
  json.add("detector.flash_recall", flash.flash_onsets >= 1 ? 1.0 : 0.0);
  std::printf("\n[detector] precision=%.2f recall=%.2f flash_recall=%.2f\n",
              precision, recall, flash.flash_onsets >= 1 ? 1.0 : 0.0);

  // --- 10M-client diurnal scenario: scale + determinism --------------------
  ScenarioSpec tenm;
  tenm.num_clients = 10000000;
  tenm.base_rate = 30e3;
  tenm.diurnal_period = quick(seconds(8), seconds(2));
  tenm.with_monitor = false;
  auto t0 = wall_now();
  ScenarioResult run1 = run_scenario(tenm, d, &json, "tenm");
  const double wall_s = wall_seconds_since(t0);
  ScenarioResult run2 = run_scenario(tenm, d);
  require(run1.digest == run2.digest &&
              run1.offered == run2.offered &&
              run1.completed == run2.completed,
          "10M-client diurnal scenario not deterministic across reruns");
  json.add("tenm.offered", run1.offered);
  json.add("tenm.cache_hits", run1.cache_hits);
  json.add("tenm.completed", run1.completed);
  json.add("tenm.goodput_per_s", run1.goodput_per_s);
  json.add("tenm.deterministic", static_cast<std::uint64_t>(1));
  std::printf(
      "[10M] %llu offered (%llu absorbed by resolver caches), "
      "%llu completed, deterministic rerun ok, %.1fs wall\n",
      static_cast<unsigned long long>(run1.offered),
      static_cast<unsigned long long>(run1.cache_hits),
      static_cast<unsigned long long>(run1.completed), wall_s);

  prof.attach(json);
  json.write();
  std::printf("\nfig_flashcrowd: all discrimination asserts passed\n");
  return 0;
}
