// The three benchmark workloads, each assembled on the simulator testbed:
// a protected ANS simulator, the remote DNS guard in router mode in front
// of it, and the load generators that play its clients and attackers.
//
// Everything the generators send derives from one seed. The guard and the
// ANS see only the packets the generators produce.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "report.h"
#include "workload/population.h"

namespace hostbench {

using namespace dnsguard;

enum class Workload { kLegitSteady, kSpoofFlood, kTcpChurn };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

using bench::kAnsIp;
using bench::kSubnetBase;
/// The ANS simulator's fixed answer (AnsSimulatorNode::Config default).
inline constexpr net::Ipv4Address kAnswerIp{192, 0, 2, 1};
/// Both spoofed floods draw sources from [kSpoofBase, kSpoofBase + 2^20).
inline constexpr net::Ipv4Address kSpoofBase{10, 200, 0, 0};
inline constexpr std::uint32_t kSpoofRange = 1u << 20;

[[nodiscard]] inline bool is_spoofed(net::Ipv4Address a) {
  return a.value() - kSpoofBase.value() < kSpoofRange;
}

/// What the output checks saw while the testbed ran.
struct Tally {
  std::uint64_t replies_checked = 0;  // legitimate replies validated
  std::uint64_t bad_replies = 0;      // of which failed validation
  std::uint64_t spoofed_at_ans = 0;   // spoofed-source queries the ANS got
};

/// One workload's testbed, on the paper benches' testbed (the ANS
/// simulator, and the guard with their non-throttling limiter settings),
/// with checked generators. Construction builds every node; start() sets
/// the generators going.
class Testbed : public bench::Testbed {
 public:
  Testbed(Workload workload, std::uint64_t seed);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  void start();

  /// Simulated time the workload runs before anything is measured.
  [[nodiscard]] SimDuration warmup() const { return warmup_; }
  /// Simulated seconds the workload gets through per wall second, about,
  /// on a 4-vCPU Xeon VM. It sizes the measured window: --seconds times
  /// this much simulated time, whatever this run's speed.
  [[nodiscard]] double sim_per_wall_second() const {
    return sim_per_wall_second_;
  }

  /// Legitimate requests resolved so far, summed over every generator.
  struct LegitCounts {
    std::uint64_t completed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t unexpected = 0;
  };
  [[nodiscard]] LegitCounts legit_counts() const;
  /// Spoofed requests sent so far by both floods.
  [[nodiscard]] std::uint64_t spoofed_sent() const;

  /// Where a measured window starts, for the output checks.
  struct Mark {
    LegitCounts legit;
    Tally tally;
    Snapshot metrics;
  };
  [[nodiscard]] Mark mark() const;
  /// The output checks over the window since `m`: every legitimate reply
  /// valid, no unexpected reply, no spoofed query at the ANS, no limiter
  /// throttling and no receive-queue overflow. Returns what failed.
  [[nodiscard]] std::vector<std::string> check_since(const Mark& m) const;

  Tally tally;
  std::unique_ptr<workload::ClientPopulationNode> population;

 private:
  void add_driver(workload::DriveMode mode, net::Ipv4Address address,
                  int concurrency, SimDuration timeout);
  void add_population(std::uint64_t clients, double base_rate);
  void add_flood(double rate, bool random_txt_cookie);

  std::uint64_t seed_;
  std::uint64_t streams_ = 0;  // per-generator seed derivation counter
  SimDuration warmup_{};
  double sim_per_wall_second_ = 1.0;
  std::vector<SimDuration> driver_offsets_;
};

}  // namespace hostbench
