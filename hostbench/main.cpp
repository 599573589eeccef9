// hostbench — host-ledger benchmark of the DNS guard testbed.
//
//   hostbench --workload <legit_steady|spoof_flood|tcp_churn> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no instrumentation in the
// testbed. --trace 1 captures the same workload's packet stream and
// replays it through each layer (replay.cpp) for the per-layer metrics.
// Both print a human-readable report and, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero when an output check fails. README.md describes every metric.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "replay.h"
#include "report.h"
#include "testbed.h"

namespace hostbench {
namespace {

/// Set-up (testbed build + warmup) is repeated, kSetupsBefore times before
/// the window (the last of those testbeds is measured) and kSetupsAfter
/// times after it, and setup_s is the median of all. Set-ups half a minute
/// apart meet different load from other tenants (see kFastQuantile), so
/// one slow stretch of the run cannot move the median.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;
/// The measured window is a fixed amount of simulated work: chunks of
/// 100 ms simulated, each cut into 5 ms slices. A slice yields one
/// wall-ns-per-guard-packet sample; a chunk yields one throughput and one
/// slice median. The chunk count follows from --seconds and the workload's
/// nominal speed (Testbed::sim_per_wall_second), never from how fast this
/// run goes, so every build does the same work and gets as many samples.
constexpr SimDuration kSlice = milliseconds(5);
constexpr std::int64_t kSlicesPerChunk = 20;
constexpr SimDuration kChunk = kSlice * kSlicesPerChunk;
/// The model metrics, allocs/packet and attempted/failed cover the first
/// kModelChunks chunks only, so they depend on the seed alone.
constexpr std::int64_t kModelChunks = 10;
constexpr SimDuration kModelWindow = kChunk * kModelChunks;
/// On a shared VM each vCPU's speed depends on what other tenants run
/// beside it: it switches between a fast and a slow state (up to 2x
/// apart) every few seconds, vCPU by vCPU. So the window moves the thread
/// to the next allowed CPU every chunk, and each host-time metric is a
/// quantile near the fast end of the chunk distribution: throughput is the
/// 90th percentile of chunk throughputs, the slice median the 10th
/// percentile of chunk slice medians. A change to the code moves every
/// chunk alike, so it moves these quantiles too.
constexpr double kFastQuantile = 90;

/// Moves the calling thread over the CPUs it may run on, one per step,
/// and restores its affinity when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
  }

  void pin(std::size_t step) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  [[nodiscard]] std::size_t size() const { return cpus_.size(); }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

struct Args {
  Workload workload = Workload::kLegitSteady;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "<legit_steady|spoof_flood|tcp_churn> --seed <n> --seconds "
               "<s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = parse_workload(v);
      if (!w) usage(std::string("unknown workload ") + v);
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
}

int run_untraced(const Args& args) {
  CpuRotation cpus;

  // --- set-up, repeated ----------------------------------------------------
  std::vector<double> setups;
  std::unique_ptr<Testbed> bed;
  std::uint64_t warmup_allocs = 0;
  auto set_up = [&] {
    bed.reset();
    cpus.pin(setups.size());
    const auto t0 = WallClock::now();
    const std::uint64_t a0 = allocations();
    bed = std::make_unique<Testbed>(args.workload, args.seed);
    bed->start();
    bed->sim.run_until(SimTime{} + bed->warmup());
    setups.push_back(wall_seconds_since(t0));
    warmup_allocs = allocations() - a0;
  };
  for (int i = 0; i < kSetupsBefore; ++i) set_up();

  // --- measured window -----------------------------------------------------
  Testbed& b = *bed;
  const std::int64_t chunks = std::max<std::int64_t>(
      kModelChunks,
      std::llround(args.seconds * b.sim_per_wall_second() /
                   (static_cast<double>(kChunk.ns) * 1e-9)));
  for (auto& d : b.drivers) d->latencies() = Percentiles{};
  const SimTime t_open = b.sim.now();
  const Testbed::Mark mark0 = b.mark();
  const std::uint64_t spoof0 = b.spoofed_sent();
  const std::uint64_t rx0 = b.guard->stats().rx.value();
  const std::uint64_t allocs0 = allocations();

  std::vector<double> chunk_pkts_per_s;
  std::vector<double> chunk_p50;
  std::vector<double> chunk_slices;      // the current chunk's slices
  std::vector<double> latencies_us;
  {
    UncountedScope uncounted;
    chunk_pkts_per_s.reserve(static_cast<std::size_t>(chunks));
    chunk_p50.reserve(static_cast<std::size_t>(chunks));
    chunk_slices.reserve(kSlicesPerChunk);
  }
  Testbed::LegitCounts legit{};
  std::uint64_t bad_model = 0;
  std::uint64_t rx_model = 0;
  std::uint64_t allocs_model = 0;
  std::uint64_t window_pkts = 0;

  const auto wall_open = WallClock::now();
  const double cpu_open = thread_cpu_seconds();
  SimTime t = t_open;
  for (std::int64_t c = 0; c < chunks; ++c) {
    cpus.pin(static_cast<std::size_t>(c));
    std::uint64_t chunk_pkts = 0;
    std::int64_t chunk_ns = 0;
    chunk_slices.clear();
    for (std::int64_t k = 0; k < kSlicesPerChunk; ++k) {
      const std::uint64_t rx_before = b.guard->stats().rx.value();
      t = t + kSlice;
      const auto w0 = WallClock::now();
      b.sim.run_until(t);
      const std::int64_t ns = ns_between(w0, WallClock::now());
      const std::uint64_t pkts = b.guard->stats().rx.value() - rx_before;
      chunk_pkts += pkts;
      chunk_ns += ns;
      if (pkts > 0) {
        chunk_slices.push_back(static_cast<double>(ns) /
                               static_cast<double>(pkts));
      }
    }
    UncountedScope uncounted;
    if (c + 1 == kModelChunks) {
      allocs_model = allocations() - allocs0;
      rx_model = b.guard->stats().rx.value() - rx0;
      const Testbed::LegitCounts n = b.legit_counts();
      legit = {n.completed - mark0.legit.completed,
               n.timeouts - mark0.legit.timeouts,
               n.unexpected - mark0.legit.unexpected};
      bad_model = b.tally.bad_replies - mark0.tally.bad_replies;
      for (auto& d : b.drivers) {
        append_samples(d->latencies(), 1000.0, latencies_us);  // ms -> us
      }
    }
    // Drivers keep every latency sample; past the model window, drop them
    // each chunk so memory does not grow with the length of the window.
    if (c + 1 >= kModelChunks) {
      for (auto& d : b.drivers) d->latencies() = Percentiles{};
    }
    window_pkts += chunk_pkts;
    chunk_pkts_per_s.push_back(ratio(static_cast<double>(chunk_pkts),
                                     static_cast<double>(chunk_ns) * 1e-9));
    chunk_p50.push_back(quantile(chunk_slices, 50));
  }
  const double wall_s = wall_seconds_since(wall_open);
  const double cpu_s = thread_cpu_seconds() - cpu_open;

  // --- output checks (whole window) ----------------------------------------
  std::vector<std::string> failures = b.check_since(mark0);
  if (warmup_allocs == 0) failures.emplace_back("allocation counter saw 0");
  if (legit.completed == 0 || rx_model == 0) {
    failures.emplace_back("the model window completed no work");
  }
  const std::uint64_t spoofed = b.spoofed_sent() - spoof0;
  const std::uint64_t spoof_admitted =
      b.tally.spoofed_at_ans - mark0.tally.spoofed_at_ans;
  const std::uint64_t checked =
      b.tally.replies_checked - mark0.tally.replies_checked;
  const std::uint64_t bad = b.tally.bad_replies - mark0.tally.bad_replies;

  const double model_s = static_cast<double>(kModelWindow.ns) * 1e-9;
  const std::uint64_t attempted =
      legit.completed + legit.timeouts + legit.unexpected;
  const std::uint64_t failed = legit.timeouts + legit.unexpected + bad_model;

  // The measured testbed (and `b`) is released by the first of these.
  for (int i = 0; i < kSetupsAfter; ++i) set_up();
  const double setup_s = quantile(setups, 50);

  std::printf("hostbench %s seed=%llu trace=0\n", workload_name(args.workload),
              static_cast<unsigned long long>(args.seed));
  std::printf("  setup: %zu builds, %.3f s median; warmup allocations %llu\n",
              setups.size(), setup_s,
              static_cast<unsigned long long>(warmup_allocs));
  std::printf("  window: %.3f s simulated in %.3f s wall (%.3f s thread CPU); "
              "%zu chunks of %zu slices of %.0f ms over %zu CPUs\n",
              static_cast<double>((t - t_open).ns) * 1e-9, wall_s, cpu_s,
              chunk_pkts_per_s.size(),
              static_cast<std::size_t>(kSlicesPerChunk), kSlice.millis(),
              cpus.size());
  std::printf("  guard packets: %llu in window, %llu in the %.1f s model "
              "window; pkt/s per chunk min %.0f max %.0f\n",
              static_cast<unsigned long long>(window_pkts),
              static_cast<unsigned long long>(rx_model), model_s,
              *std::min_element(chunk_pkts_per_s.begin(),
                                chunk_pkts_per_s.end()),
              *std::max_element(chunk_pkts_per_s.begin(),
                                chunk_pkts_per_s.end()));
  std::printf("  legit: %llu completed, %llu timeouts, %llu unexpected in the "
              "model window; %zu driver latencies; %llu replies checked in "
              "the window, %llu bad\n",
              static_cast<unsigned long long>(legit.completed),
              static_cast<unsigned long long>(legit.timeouts),
              static_cast<unsigned long long>(legit.unexpected),
              latencies_us.size(), static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(bad));
  std::printf("  model.legit_fail_ratio %.6g, model.spoof_admit_ratio %.6g "
              "(%llu of %llu spoofed)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              ratio(static_cast<double>(spoof_admitted),
                    static_cast<double>(spoofed)),
              static_cast<unsigned long long>(spoof_admitted),
              static_cast<unsigned long long>(spoofed));
  print_failures(failures);

  const std::vector<Metric> metrics = {
      {"host.guard_pkts_per_s", quantile(chunk_pkts_per_s, kFastQuantile),
       "pkt/s"},
      {"host.slice_ns_per_pkt_p50", quantile(chunk_p50, 100 - kFastQuantile),
       "ns"},
      {"host.allocs_per_guard_pkt",
       ratio(static_cast<double>(allocs_model),
             static_cast<double>(rx_model)),
       "count"},
      {"host.peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
      {"model.legit_goodput_rps",
       static_cast<double>(legit.completed) / model_s, "req/s"},
      {"model.legit_latency_p50_us", quantile(latencies_us, 50), "us"},
      {"model.legit_latency_p99_us", quantile(latencies_us, 99), "us"},
  };
  print_result(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}

int run_traced(const Args& args) {
  TraceOutcome out = run_trace(args.workload, args.seed);
  std::printf("hostbench %s seed=%llu trace=1\n", workload_name(args.workload),
              static_cast<unsigned long long>(args.seed));
  for (const std::string& line : out.report) {
    std::printf("  %s\n", line.c_str());
  }
  print_failures(out.failures);
  print_result(out.failures.empty(), out.attempted, out.failed, out.metrics);
  return out.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  const hostbench::Args args = hostbench::parse_args(argc, argv);
  return args.trace ? hostbench::run_traced(args)
                    : hostbench::run_untraced(args);
}
