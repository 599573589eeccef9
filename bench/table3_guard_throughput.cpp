// Table III — Average DNS request throughput (requests/sec) for different
// spoof detection schemes between an ANS simulator and an LRS simulator
// (§IV.D), cache miss vs cache hit. Paper numbers:
//
//                 NS name  Fabricated  TCP-based  Modified DNS
//   Cache Miss     84.2K     60.1K       22.7K       84.3K
//   Cache Hit     110.1K    109.7K       22.7K      110.3K
//
// Hits are capped by the ANS simulator (~110K/s); misses by the guard CPU
// (cookie computations + packets per request).
//
// This bench also anchors the cost-attribution profiler (ROADMAP item 5:
// where do the miss path's extra nanoseconds go?): every row captures a
// per-stage wall-cost profile into the "profile" JSON section, and an
// interleaved A/B gate asserts that enabling the profiler costs <= 2% of
// host wall time.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"

using namespace dnsguard;
using namespace dnsguard::bench;
using workload::DriveMode;
using workload::TablePrinter;

namespace {

struct RowResult {
  double rps = 0.0;
  /// Fraction of the window's wall time attributed under the profiler's
  /// root (the non-double-counting coverage figure); 0 when not profiled.
  double coverage = 0.0;
};

RowResult measure_throughput(guard::Scheme scheme, DriveMode mode,
                             int concurrency,
                             JsonResultWriter* json = nullptr,
                             const std::string& counter_prefix = "",
                             ProfileCollector* prof = nullptr,
                             const std::string& prof_label = "") {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(scheme);
  auto* driver = bed.add_driver(mode, concurrency);
  // Journey tracing and counter sampling run on every row: they operate
  // in virtual time and charge no simulated CPU, so the throughput
  // numbers must not move — the committed baseline enforces that. The
  // profiler likewise charges no *simulated* CPU (virtual results stay
  // bit-identical); its wall cost is bounded by the overhead gate below.
  bed.enable_journeys = true;
  bed.timeseries_window = quick(milliseconds(250), milliseconds(100));
  bed.enable_profiling = prof != nullptr;
  SimDuration window = bed.measure(quick(milliseconds(500), milliseconds(200)),
                                   quick(seconds(2), milliseconds(500)));
  RowResult out;
  if (prof != nullptr) {
    prof->capture(prof_label, bed.last_wall_ns);
    if (bed.last_wall_ns > 0) {
      out.coverage =
          obs::prof::profiler.report(bed.last_wall_ns).root_total_ns() /
          bed.last_wall_ns;
    }
  }
  if (json != nullptr) {
    json->add_counters(bed.sim.metrics(), counter_prefix);
    json->add_section("timeseries", bed.sim.timeseries().to_json(2));
  }
  out.rps = static_cast<double>(driver->driver_stats().completed) /
            window.seconds();
  return out;
}

/// Profiler overhead gate: one warmed-up testbed on the ns-name hit row
/// (the highest-throughput path, so the most probe-sensitive), then
/// alternating ~50 ms profiled / unprofiled *slices* of the same
/// steady-state run. Slice-level interleaving is what makes a 2% gate
/// measurable on a noisy host: run-level A/B showed +-3% wall noise on
/// shared machines, swamping the effect, while toggling mid-run costs
/// nothing because enable()/disable() keep the cell matrix. Returns the
/// enabled/disabled interquartile-mean ratio plus its standard error, so
/// the caller can gate with statistical confidence instead of flaking
/// whenever the host gets busy (see the estimator note below).
struct OverheadGate {
  double ratio = 1.0;
  double se = 0.0;
};

OverheadGate profiler_overhead_ratio() {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(guard::Scheme::NsName);
  auto* driver = bed.add_driver(DriveMode::NsNameHit, 256);
  driver->start();
  bed.sim.run_for(quick(milliseconds(500), milliseconds(200)));
  obs::prof::profiler.enable();
  obs::prof::profiler.reset();
  obs::prof::profiler.disable();
  // Interleaved ABBA blocks of *short* (~1 ms CPU) slices of the same
  // steady-state run, each timed in thread CPU time; the gate returns
  // the interquartile mean of the per-block on/off ratios. Slices this
  // short matter:
  // per-slice cost on a shared host wanders +-10% at the 30 ms scale
  // (frequency scaling, hypervisor steal), but those states persist for
  // a few milliseconds, so the four slices inside one short block see
  // nearly the same host state and their ratio cancels it. Hundreds of
  // blocks then shrink the estimator's standard error below the gate's
  // margin, and taking the interquartile mean discards blocks straddling
  // a host state change. Every slice replays the same deterministic
  // virtual load, so arms differ only by probe overhead.
  const int blocks = quick(1000, 800);
  const SimDuration slice = quick(milliseconds(4), milliseconds(2));
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(blocks));
  auto run_slice = [&](bool on) {
    if (on) {
      obs::prof::profiler.enable();
    } else {
      obs::prof::profiler.disable();
    }
    const double t0 = thread_cpu_seconds();
    bed.sim.run_for(slice);
    return thread_cpu_seconds() - t0;
  };
  for (int k = 0; k < blocks; ++k) {
    double on_cpu = run_slice(true);
    double off_cpu = run_slice(false);
    off_cpu += run_slice(false);
    on_cpu += run_slice(true);
    if (off_cpu > 0) ratios.push_back(on_cpu / off_cpu);
  }
  obs::prof::profiler.disable();
  driver->stop();
  OverheadGate gate;
  if (ratios.empty()) return gate;
  std::sort(ratios.begin(), ratios.end());
  std::printf("gate block ratios p10/p25/p50/p75/p90:");
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90}) {
    const auto i =
        static_cast<std::size_t>(q * static_cast<double>(ratios.size() - 1));
    std::printf(" %.4f", ratios[i]);
  }
  std::printf("  (n=%zu)\n", ratios.size());
  // Interquartile mean: robust to the heavy tails, ~40% lower standard
  // error than the median at this sample size. The SE of the central-half
  // values rides along so main() can gate with confidence bounds — on a
  // quiet host it is ~0.2%, and when the machine is too busy to resolve
  // a 2% effect it widens honestly instead of producing a flaky verdict.
  const std::size_t q1 = ratios.size() / 4;
  const std::size_t q3 = ratios.size() - q1;
  const std::size_t m = q3 - q1;
  double sum = 0.0;
  for (std::size_t i = q1; i < q3; ++i) sum += ratios[i];
  gate.ratio = sum / static_cast<double>(m);
  double var = 0.0;
  for (std::size_t i = q1; i < q3; ++i) {
    var += (ratios[i] - gate.ratio) * (ratios[i] - gate.ratio);
  }
  if (m > 1) {
    gate.se = std::sqrt(var / static_cast<double>(m - 1) /
                        static_cast<double>(m));
  }
  return gate;
}

}  // namespace

int main() {
  std::printf(
      "TABLE III: Average DNS request throughput (requests/sec), ANS "
      "simulator + LRS simulator (paper %sIV.D)\n\n",
      "\xc2\xa7");

  struct Row {
    const char* label;
    const char* prof_label;
    guard::Scheme scheme;
    DriveMode miss;
    DriveMode hit;
    int conc_miss;
    int conc_hit;
    double paper_miss;
    double paper_hit;
  };
  const Row rows[] = {
      {"dns-based/ns-name", "ns_name", guard::Scheme::NsName,
       DriveMode::NsNameMiss, DriveMode::NsNameHit, 256, 256, 84200, 110100},
      {"dns-based/fabricated", "fabricated", guard::Scheme::FabricatedNsIp,
       DriveMode::FabricatedMiss, DriveMode::FabricatedHit, 256, 256, 60100,
       109700},
      {"tcp-based", "tcp", guard::Scheme::TcpRedirect,
       DriveMode::TcpWithRedirect, DriveMode::TcpWithRedirect, 50, 50, 22700,
       22700},
      {"modified-dns", "modified", guard::Scheme::ModifiedDns,
       DriveMode::ModifiedMiss, DriveMode::ModifiedHit, 256, 256, 84300,
       110300},
  };

  TablePrinter table(
      {"scheme", "miss(req/s)", "paper", "hit(req/s)", "paper"}, 22);
  table.print_header();
  JsonResultWriter json("table3_guard_throughput");
  ProfileCollector prof;
  double ns_name_miss_coverage = 0.0;
  double ns_name_hit_coverage = 0.0;
  for (const Row& row : rows) {
    // Counters snapshot for the first (ns-name miss) run only: one
    // representative registry dump keeps the JSON bounded.
    bool first = &row == &rows[0];
    RowResult miss = measure_throughput(
        row.scheme, row.miss, row.conc_miss, first ? &json : nullptr,
        "ns_name_miss.", &prof, std::string(row.prof_label) + "_miss");
    RowResult hit = measure_throughput(row.scheme, row.hit, row.conc_hit,
                                       nullptr, "", &prof,
                                       std::string(row.prof_label) + "_hit");
    if (first) {
      ns_name_miss_coverage = miss.coverage;
      ns_name_hit_coverage = hit.coverage;
    }
    table.print_row({row.label, TablePrinter::kilo(miss.rps),
                     TablePrinter::kilo(row.paper_miss),
                     TablePrinter::kilo(hit.rps),
                     TablePrinter::kilo(row.paper_hit)});
    json.add(std::string(row.label) + "_miss_rps", miss.rps);
    json.add(std::string(row.label) + "_hit_rps", hit.rps);
  }
  obs::prof::profiler.disable();

  // Attribution coverage: the per-stage shares must explain >= 90% of the
  // guard phase's measured wall time, or the profile is lying by
  // omission. (Dispatch slices charge all in-loop time, so in practice
  // this sits near 100%; a big gap means probes broke.) A real probe
  // regression depresses *every* profiled window, while a hypervisor
  // steal burst inflates one window's wall denominator — so the hard
  // failure requires both the miss and hit windows under the bar, and a
  // single low window only warns.
  json.add("ns_name_miss_profile_coverage", ns_name_miss_coverage);
  json.add("ns_name_hit_profile_coverage", ns_name_hit_coverage);
  bool ok = true;
  if (ns_name_miss_coverage < 0.90 && ns_name_hit_coverage < 0.90) {
    std::fprintf(stderr,
                 "FAIL: profile coverage below 90%% (miss %.1f%%, hit "
                 "%.1f%%)\n",
                 ns_name_miss_coverage * 100, ns_name_hit_coverage * 100);
    ok = false;
  } else if (ns_name_miss_coverage < 0.90 || ns_name_hit_coverage < 0.90) {
    std::fprintf(stderr,
                 "WARN: one profile window below 90%% coverage (miss "
                 "%.1f%%, hit %.1f%%) — host interference, not a probe "
                 "regression\n",
                 ns_name_miss_coverage * 100, ns_name_hit_coverage * 100);
  }

  // Zero-cost-when-disabled contract, runtime half: profiling on must
  // cost <= 2% of host wall time versus off. The verdict is
  // confidence-gated: fail when the measured ratio exceeds the bound by
  // more than two standard errors (so a busy host widens tolerance
  // instead of flaking), with a hard 5% cap no amount of measured noise
  // can excuse.
  OverheadGate gate = profiler_overhead_ratio();
  json.add("profiler_overhead_ratio", gate.ratio);
  json.add("profiler_overhead_se", gate.se);
  std::printf(
      "\nprofiler overhead ratio (enabled/disabled wall): %.4f "
      "(se %.4f)\n",
      gate.ratio, gate.se);
  if (gate.ratio > 1.02 + 2.0 * gate.se || gate.ratio > 1.05) {
    std::fprintf(stderr,
                 "FAIL: profiler overhead %.2f%% exceeds the 2%% gate "
                 "(se %.2f%%)\n",
                 (gate.ratio - 1.0) * 100, gate.se * 100);
    ok = false;
  } else if (gate.ratio > 1.02) {
    std::fprintf(stderr,
                 "WARN: profiler overhead %.2f%% above 2%% but within "
                 "measurement noise (se %.2f%%)\n",
                 (gate.ratio - 1.0) * 100, gate.se * 100);
  }

  prof.attach(json);
  json.write();
  std::printf(
      "\nShape checks: miss ranking modified ~ ns-name > fabricated > tcp;\n"
      "all UDP hit rows capped by the ~110K/s ANS simulator; TCP flat.\n");
  return ok ? 0 : 1;
}
