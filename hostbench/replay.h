// The traced run: capture a workload's packet stream with
// Simulator::set_tap, then replay it through each layer's public entry
// point and time every call from here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "testbed.h"

namespace hostbench {

struct TraceOutcome {
  std::vector<Metric> metrics;       // every per-layer metric
  std::vector<std::string> report;   // human-readable lines
  std::vector<std::string> failures; // failed output checks
  std::uint64_t attempted = 0;       // legitimate requests in the window
  std::uint64_t failed = 0;
};

[[nodiscard]] TraceOutcome run_trace(Workload workload, std::uint64_t seed);

}  // namespace hostbench
