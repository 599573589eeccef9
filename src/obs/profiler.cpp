#include "obs/profiler.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace dnsguard::obs::prof {

const char* stage_name(Stage s) noexcept {
  switch (s) {
    case Stage::kRoot:
      return "root";
    case Stage::kSimDispatch:
      return "sim.dispatch";
    case Stage::kNodeService:
      return "node.service";
    case Stage::kDriverService:
      return "driver.service";
    case Stage::kAttackService:
      return "attack.service";
    case Stage::kAnsService:
      return "ans.service";
    case Stage::kResolverService:
      return "resolver.service";
    case Stage::kGuardService:
      return "guard.service";
    case Stage::kGuardDecode:
      return "guard.decode";
    case Stage::kGuardMint:
      return "guard.mint";
    case Stage::kGuardVerify:
      return "guard.verify";
    case Stage::kGuardRl1:
      return "guard.rl1";
    case Stage::kGuardRl2:
      return "guard.rl2";
    case Stage::kGuardNat:
      return "guard.nat_rewrite";
    case Stage::kGuardTcpProxy:
      return "guard.tcp_proxy";
    case Stage::kCookieHash:
      return "crypto.cookie_hash";
    case Stage::kCount:
      break;
  }
  return "unknown";
}

double Report::root_total_ns() const {
  double total = 0;
  for (const EdgeReport& e : edges) {
    if (e.parent == Stage::kRoot) total += e.total_ns;
  }
  return total;
}

void Profiler::calibrate() {
  // The one place in src/ outside common/time.cpp that reads a host
  // clock by design: ticks have no unit until measured against
  // steady_clock (tools/lint/dnsguard_lint.py exempts this file from the
  // sim-time-purity rule for exactly this reason).
  using Clock = std::chrono::steady_clock;
  const Clock::time_point c0 = Clock::now();
  const std::uint64_t t0 = rdtick();
  for (;;) {
    const Clock::time_point c1 = Clock::now();
    const auto elapsed_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(c1 - c0)
            .count();
    if (elapsed_ns >= 2'000'000) {  // ~2 ms window: stable to <1%
      const std::uint64_t t1 = rdtick();
      ns_per_tick_ = t1 > t0 ? static_cast<double>(elapsed_ns) /
                                   static_cast<double>(t1 - t0)
                             : 1.0;
      return;
    }
  }
}

void Profiler::enable() {
  if (ns_per_tick_ <= 0.0) calibrate();
  enabled_ = true;
  recording_ = true;
}

void Profiler::disable() {
  enabled_ = false;
  recording_ = false;
}

void Profiler::reset() {
  std::memset(cells_, 0, sizeof(cells_));
  depth_ = 0;
  mismatched_spans_ = 0;
  overflow_spans_ = 0;
  events_ = 0;
  sampled_events_ = 0;
}

Report Profiler::report(double measured_wall_ns) const {
  Report r;
  r.ns_per_tick = ns_per_tick_ > 0.0 ? ns_per_tick_ : 1.0;
  r.mismatched_spans = mismatched_spans_;
  r.overflow_spans = overflow_spans_;
  r.events = events_;
  r.sampled_events = sampled_events_;
  // Sampled captures hold sampled/events of the run; scale counts, totals
  // and histograms back up so the report estimates the full run. min/max
  // stay raw: they are observed extrema, not rates.
  double scale = 1.0;
  if (sampled_events_ > 0) {
    scale = static_cast<double>(events_) / static_cast<double>(sampled_events_);
  }
  auto scaled = [scale](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * scale + 0.5);
  };
  for (std::size_t i = 0; i < kStageCount * kStageCount; ++i) {
    const Cell& c = cells_[i];
    if (c.count == 0) continue;
    EdgeReport e;
    e.parent = static_cast<Stage>(i / kStageCount);
    e.stage = static_cast<Stage>(i % kStageCount);
    e.count = scaled(c.count);
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      e.hist[b] = scaled(c.hist[b]);
    }
    e.total_ns = static_cast<double>(c.total) * r.ns_per_tick * scale;
    e.min_ns = static_cast<double>(c.min) * r.ns_per_tick;
    e.max_ns = static_cast<double>(c.max) * r.ns_per_tick;
    r.edges.push_back(e);
  }
  // One wall-anchored factor: attribution never exceeds the measured wall
  // time of the window it covers, and is never inflated toward it.
  const double root_ns = r.root_total_ns();
  if (measured_wall_ns > 0 && root_ns > measured_wall_ns) {
    r.deflation = measured_wall_ns / root_ns;
    for (EdgeReport& e : r.edges) e.total_ns *= r.deflation;
  }
  return r;
}

namespace {

void append_num(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string Profiler::report_json(double measured_wall_ns,
                                  int indent) const {
  const Report r = report(measured_wall_ns);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  const std::string pad3 = pad2 + "  ";
  std::string out = "{\n";
  out += pad2 + "\"enabled\": " + (enabled_ ? "true" : "false") + ",\n";
  out += pad2 + "\"ns_per_tick\": ";
  append_num(out, r.ns_per_tick);
  out += ",\n" + pad2 + "\"measured_wall_ns\": ";
  append_num(out, measured_wall_ns);
  out += ",\n" + pad2 +
         "\"mismatched_spans\": " + std::to_string(r.mismatched_spans);
  out += ",\n" + pad2 +
         "\"overflow_spans\": " + std::to_string(r.overflow_spans);
  out += ",\n" + pad2 + "\"events\": " + std::to_string(r.events);
  out += ",\n" + pad2 +
         "\"sampled_events\": " + std::to_string(r.sampled_events);
  out += ",\n" + pad2 + "\"deflation\": ";
  append_num(out, r.deflation);
  if (measured_wall_ns > 0) {
    out += ",\n" + pad2 + "\"root_share\": ";
    append_num(out, r.root_total_ns() / measured_wall_ns);
  }
  out += ",\n" + pad2 + "\"stages\": [";
  bool first = true;
  for (const EdgeReport& e : r.edges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad3 + "{\"parent\": \"" + stage_name(e.parent) +
           "\", \"stage\": \"" + stage_name(e.stage) + "\"";
    out += ", \"count\": " + std::to_string(e.count);
    out += ", \"total_ns\": ";
    append_num(out, e.total_ns);
    out += ", \"ns_per_op\": ";
    append_num(out, e.count > 0 ? e.total_ns / static_cast<double>(e.count)
                                : 0.0);
    out += ", \"min_ns\": ";
    append_num(out, e.min_ns);
    out += ", \"max_ns\": ";
    append_num(out, e.max_ns);
    if (measured_wall_ns > 0) {
      out += ", \"share\": ";
      append_num(out, e.total_ns / measured_wall_ns);
    }
    // Histogram as [lower_bound_ns, count] pairs, zero buckets omitted.
    out += ", \"hist_ns\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (e.hist[b] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      const double lower =
          b == 0 ? 0.0
                 : static_cast<double>(std::uint64_t{1} << b) * r.ns_per_tick;
      out += "[";
      append_num(out, lower);
      out += ", " + std::to_string(e.hist[b]) + "]";
    }
    out += "]}";
  }
  out += first ? "]" : "\n" + pad2 + "]";
  out += "\n" + pad + "}";
  return out;
}

}  // namespace dnsguard::obs::prof
