// Figure 6 — DNS guard throughput under attack (modified-DNS scheme):
//   (a) throughput of legitimate requests vs attack rate (0-250K req/s),
//       protection enabled vs disabled;
//   (b) CPU utilization of the remote DNS guard, enabled vs disabled.
//
// Paper setup (§IV.E): one legitimate LRS that already holds the correct
// cookie saturates the ANS (ANS-simulator capacity ~110K/s); an attacker
// sends spoofed requests without the right cookie at increasing rates.
// Paper shape: disabled decays linearly to ~0 at 110K attack; enabled
// holds >=100K legit to 200K attack and ~80K at 250K, where the guard's
// CPU saturates; spoof-detection CPU overhead is 15-25%.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace dnsguard;
using namespace dnsguard::bench;
using workload::DriveMode;
using workload::TablePrinter;

namespace {

struct Point {
  double legit_throughput;
  double guard_cpu;
};

Point run_point(double attack_rate, bool protection,
                JsonResultWriter* json = nullptr,
                const std::string& counter_prefix = "",
                ProfileCollector* prof = nullptr,
                const std::string& prof_label = "") {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(protection ? guard::Scheme::ModifiedDns
                            : guard::Scheme::PassThrough);
  // Legitimate LRS "sends requests to the ANS as fast as possible" and
  // already has the cookie (ModifiedHit). With protection disabled it is
  // a plain UDP requester (no cookie machinery to speak to).
  bed.add_driver(protection ? DriveMode::ModifiedHit : DriveMode::PlainUdp,
                 /*concurrency=*/256);
  if (attack_rate > 0) {
    bed.add_attacker(attack_rate, net::Ipv4Address(10, 9, 9, 9),
                     attack::SpoofedFloodNode::SpoofConfig{
                         .random_txt_cookie = protection});
  }
  if (json != nullptr) {
    // Observed point: per-window counter deltas ride along in the JSON.
    bed.timeseries_window = quick(milliseconds(250), milliseconds(100));
  }
  bed.enable_profiling = prof != nullptr;
  SimDuration window = bed.measure(quick(milliseconds(500), milliseconds(200)),
                                   quick(seconds(2), milliseconds(500)));
  if (prof != nullptr) prof->capture(prof_label, bed.last_wall_ns);
  Point p;
  p.legit_throughput =
      static_cast<double>(bed.drivers[0]->driver_stats().completed) /
      window.seconds();
  p.guard_cpu = bed.guard->utilization(window);
  if (json != nullptr) {
    json->add_counters(bed.sim.metrics(), counter_prefix);
    json->add_section("timeseries", bed.sim.timeseries().to_json(2));
  }
  return p;
}

/// A detection-timeline run: the flood switches on mid-window, and the
/// online AttackMonitor (EWMA/MAD over per-window drop deltas) must flag
/// the onset. On onset the simulator's flight recorder dumps metrics,
/// time-series windows, trace rings and open journeys to
/// $DNSGUARD_FLIGHTREC_DIR (default: CWD). Returns false when a watched
/// series is missing from the sampler.
bool run_detection_timeline(JsonResultWriter& json) {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(guard::Scheme::ModifiedDns);
  bed.add_driver(DriveMode::ModifiedHit, /*concurrency=*/256);
  bed.add_attacker(150e3, net::Ipv4Address(10, 9, 9, 9),
                   attack::SpoofedFloodNode::SpoofConfig{
                       .random_txt_cookie = true});
  SimDuration window = quick(seconds(2), milliseconds(600));
  bed.enable_journeys = true;
  bed.timeseries_window = quick(milliseconds(100), milliseconds(50));
  bed.attacker_start_delay = SimDuration{window.ns / 2};

  obs::AttackMonitor monitor;
  monitor.watch("guard.drop.bad_cookie");
  monitor.watch("guard.spoofs_dropped");
  monitor.set_on_onset([&bed](const obs::AttackMonitor::Event& e) {
    bed.sim.flight_recorder().dump("fig6_onset", e.at);
  });
  std::vector<std::string> missing;
  bed.on_sampling_started = [&] {
    missing = monitor.bind(bed.sim.timeseries(), bed.sim.metrics());
  };
  bed.measure(quick(milliseconds(500), milliseconds(200)), window);
  for (const std::string& name : missing) {
    std::fprintf(stderr, "unknown monitor series: %s\n", name.c_str());
  }

  std::uint64_t onsets = 0;
  for (const auto& e : monitor.events()) onsets += e.onset ? 1 : 0;
  json.add("detect.onsets", onsets);
  json.add("detect.under_attack_at_end",
           static_cast<std::uint64_t>(monitor.under_attack() ? 1 : 0));
  json.add_section("anomaly_events", monitor.events_json(2));
  std::printf("[detect] %zu anomaly event(s), under_attack=%d\n",
              monitor.events().size(), monitor.under_attack() ? 1 : 0);
  return missing.empty();
}

}  // namespace

int main() {
  std::printf(
      "FIGURE 6: Legitimate request throughput and guard CPU vs attack "
      "rate, modified-DNS scheme (paper %sIV.E)\n"
      "Paper shape: disabled decays ~linearly to 0 at ~110K; enabled holds "
      ">=100K to 200K attack, ~80K at 250K; overhead 15-25%%.\n\n",
      "\xc2\xa7");

  TablePrinter table({"attack(K/s)", "legit_on(K/s)", "legit_off(K/s)",
                      "cpu_on(%)", "cpu_off(%)"},
                     16);
  table.print_header();
  JsonResultWriter json("fig6_guard_under_attack");
  std::vector<double> sweep =
      quick_mode()
          ? std::vector<double>{0.0, 100e3, 250e3}
          : std::vector<double>{0.0, 25e3, 50e3, 75e3, 100e3, 125e3,
                                150e3, 175e3, 200e3, 225e3, 250e3};
  // Cost attribution at the sweep's peak attack rate: where do the
  // guard's nanoseconds go when the flood is at its worst?
  ProfileCollector prof;
  for (double attack : sweep) {
    bool last = attack == sweep.back();
    Point on = run_point(attack, /*protection=*/true, last ? &json : nullptr,
                         "", last ? &prof : nullptr, "protected_peak");
    Point off = run_point(attack, /*protection=*/false, nullptr, "",
                          last ? &prof : nullptr, "unprotected_peak");
    table.print_row({TablePrinter::num(attack / 1000, 0),
                     TablePrinter::kilo(on.legit_throughput),
                     TablePrinter::kilo(off.legit_throughput),
                     TablePrinter::percent(on.guard_cpu),
                     TablePrinter::percent(off.guard_cpu)});
    std::string key = "attack_" + TablePrinter::num(attack / 1000, 0) + "k";
    json.add(key + ".legit_on_per_s", on.legit_throughput);
    json.add(key + ".legit_off_per_s", off.legit_throughput);
    json.add(key + ".guard_cpu_on", on.guard_cpu);
    json.add(key + ".guard_cpu_off", off.guard_cpu);
  }
  obs::prof::profiler.disable();
  const bool detector_ok = run_detection_timeline(json);
  prof.attach(json);
  json.write();
  return detector_ok ? 0 : 1;
}
