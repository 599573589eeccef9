// Shard-per-core scaling curve for the DNS guard (DESIGN.md §13).
//
// Workload: a spoofed verify flood (random TXT cookies, modified-DNS
// scheme) offered well above the guard's aggregate service capacity.
// Every flood packet costs the guard one decode + one MD5 verification +
// one drop and never reaches the ANS, so the guard's own service clock is
// the only bottleneck and the verification rate IS the guard's capacity.
//
// Sweeping num_shards over 1/2/4/8 measures how capacity scales as
// per-source state partitions across independently-clocked shards fed by
// SPSC rings. Acceptance: >= 4x the single-shard verification throughput
// at 8 shards (hash imbalance across shards costs some of the ideal 8x),
// and bit-identical counters when a shard count is re-run (virtual-time
// determinism survives the ring/batch service path).
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace dnsguard;
using namespace dnsguard::bench;
using workload::TablePrinter;

namespace {

struct Point {
  double verify_rps = 0.0;      // cookie verifications per sim-second
  std::uint64_t dropped = 0;    // spoofs dropped in the window
  std::uint64_t checks = 0;     // cookie checks in the window
};

Point run_point(std::size_t shards, JsonResultWriter* json = nullptr,
                const std::string& counter_prefix = "",
                ProfileCollector* prof = nullptr,
                const std::string& prof_label = "") {
  Testbed bed;
  bed.make_ans(AnsKind::Simulator);
  bed.make_guard(guard::Scheme::ModifiedDns, 0.0,
                 [&](guard::RemoteGuardNode::Config& c) {
                   c.num_shards = shards;
                 });
  // ~2.2 us of guard service per verify-drop caps one shard near 450K/s;
  // 5M/s offered saturates even eight shards. 2^16 spoofed sources keep
  // the source-hash spread across shards dense.
  bed.add_attacker(5e6, net::Ipv4Address(10, 9, 9, 9),
                   attack::SpoofedFloodNode::SpoofConfig{
                       .spoof_base = net::Ipv4Address(10, 200, 0, 0),
                       .spoof_range = 1u << 16,
                       .random_txt_cookie = true});
  bed.enable_profiling = prof != nullptr;
  SimDuration window = bed.measure(quick(milliseconds(200), milliseconds(50)),
                                   quick(seconds(1), milliseconds(100)));
  if (prof != nullptr) prof->capture(prof_label, bed.last_wall_ns);
  Point p;
  p.checks = bed.guard->guard_stats().cookie_checks;
  p.dropped = bed.guard->guard_stats().spoofs_dropped;
  p.verify_rps = static_cast<double>(p.checks) / window.seconds();
  if (json != nullptr) {
    json->add_counters(bed.sim.metrics(), counter_prefix);
  }
  return p;
}

}  // namespace

int main() {
  std::printf(
      "GUARD SHARD SCALING: spoof-verification capacity vs shard count "
      "(saturating verify flood, modified-DNS scheme)\n"
      "Acceptance: >= 4x single-shard throughput at 8 shards; re-running "
      "a shard count reproduces identical counters.\n\n");

  JsonResultWriter json("guard_shards");
  TablePrinter table({"shards", "verify(K/s)", "dropped", "scaling"}, 14);
  table.print_header();

  // Cost attribution at both ends of the sweep: the 1-shard profile is
  // served from one lane a packet at a time, the 8-shard one from eight
  // lanes drained in bursts; both run the same per-packet guard path.
  ProfileCollector prof;
  const std::vector<std::size_t> sweep{1, 2, 4, 8};
  std::vector<Point> points;
  for (std::size_t shards : sweep) {
    bool last = shards == sweep.back();
    bool first = shards == sweep.front();
    Point p = run_point(shards, last ? &json : nullptr, "shards8.",
                        first || last ? &prof : nullptr,
                        "shards" + std::to_string(shards));
    points.push_back(p);
    double scaling = points[0].verify_rps > 0
                         ? p.verify_rps / points[0].verify_rps
                         : 0.0;
    table.print_row({std::to_string(shards),
                     TablePrinter::kilo(p.verify_rps),
                     std::to_string(p.dropped),
                     TablePrinter::num(scaling, 2) + "x"});
    json.add("verify_rps_shards" + std::to_string(shards), p.verify_rps);
  }
  const double scaling_x8 = points.back().verify_rps / points[0].verify_rps;
  json.add("scaling_x8", scaling_x8);

  // Determinism: the 8-shard point re-run must reproduce its counters
  // bit-for-bit (rings and batching preserve virtual-time determinism).
  // The re-run is unprofiled — identical counters with the profiler off
  // double as evidence that probes never touch simulation state.
  obs::prof::profiler.disable();
  Point rerun = run_point(sweep.back());
  json.add("rerun_identical",
           static_cast<std::uint64_t>(rerun.checks == points.back().checks &&
                                      rerun.dropped == points.back().dropped));
  prof.attach(json);
  json.write();

  if (scaling_x8 < 4.0) {
    std::printf("\nFAIL: 8-shard scaling %.2fx below the 4x floor\n",
                scaling_x8);
    return 1;
  }
  if (rerun.checks != points.back().checks ||
      rerun.dropped != points.back().dropped) {
    std::printf("\nFAIL: 8-shard re-run diverged (%llu/%llu checks, "
                "%llu/%llu drops)\n",
                static_cast<unsigned long long>(rerun.checks),
                static_cast<unsigned long long>(points.back().checks),
                static_cast<unsigned long long>(rerun.dropped),
                static_cast<unsigned long long>(points.back().dropped));
    return 1;
  }
  std::printf("\nOK: 8 shards = %.2fx single-shard capacity, re-run "
              "identical\n", scaling_x8);
  return 0;
}
