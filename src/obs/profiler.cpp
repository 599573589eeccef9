#include "obs/profiler.h"

#include <algorithm>
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
    case Stage::kOutboxFlush:
      return "node.outbox_flush";
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

void Profiler::calibrate_probe_cost() {
  // Runs a tight loop of armed begin/end pairs on a scratch lane to
  // measure the observer effect report() must subtract: `in` = the ticks
  // an empty span records (the gap between a Scope's two clock reads),
  // `total` = what one pair costs its surroundings. A hot-loop figure is
  // a *lower bound* on the cost probes have mid-workload (cold caches,
  // untrained branches), so the correction deliberately under-corrects
  // rather than inventing time that was never spent.
  const std::size_t saved_lane = lane_;
  lane_ = kMaxLanes - 1;
  LaneState saved_state = lane_state_[lane_];
  lane_state_[lane_].depth = 0;
  constexpr int kIters = 1 << 16;
  const std::uint64_t t0 = rdtick();
  for (int i = 0; i < kIters; ++i) {
    if (span_begin(Stage::kSimDispatch)) {
      const std::uint64_t s = rdtick();
      span_end(Stage::kSimDispatch, rdtick() - s);
    }
  }
  const std::uint64_t t1 = rdtick();
  Cell& c = cell(lane_, context_, Stage::kSimDispatch);
  probe_in_ticks_ =
      c.count > 0 ? static_cast<double>(c.total) / static_cast<double>(c.count)
                  : 0.0;
  probe_total_ticks_ = static_cast<double>(t1 - t0) / kIters;
  std::memset(&c, 0, sizeof(Cell));
  lane_state_[lane_] = saved_state;
  lane_ = saved_lane;
}

void Profiler::enable() {
  if (cells_ == nullptr) {
    // Value-initialized: a fresh matrix starts zeroed without a reset().
    cells_ = new Cell[kMaxLanes * kStageCount * kStageCount]();
  }
  if (ns_per_tick_ <= 0.0) calibrate();
  if (probe_total_ticks_ <= 0.0) calibrate_probe_cost();
  enabled_ = true;
  recording_ = true;
}

void Profiler::disable() {
  enabled_ = false;
  recording_ = false;
}

void Profiler::reset() {
  if (cells_ != nullptr) {
    std::memset(cells_, 0,
                kMaxLanes * kStageCount * kStageCount * sizeof(Cell));
  }
  for (LaneState& ls : lane_state_) ls.depth = 0;
  mismatched_spans_ = 0;
  overflow_spans_ = 0;
  control_total_ = 0;
  control_count_ = 0;
  control_blocks_ = 0;
}

Report Profiler::report() const {
  Report r;
  r.ns_per_tick = ns_per_tick_ > 0.0 ? ns_per_tick_ : 1.0;
  r.mismatched_spans = mismatched_spans_;
  r.overflow_spans = overflow_spans_;
  r.sample_stride = sample_stride_;
  r.sample_block = sample_block_;
  r.probe_cost_ns = probe_total_ticks_ * r.ns_per_tick;
  // Sampled captures hold block/stride of the run; scale counts, totals
  // and histograms back up so the report estimates the full run. min/max
  // stay raw: they are observed extrema, not rates.
  const double scale = static_cast<double>(sample_stride_) /
                       static_cast<double>(sample_block_);
  if (cells_ == nullptr) return r;

  // Pass 1: merge lanes into count/total matrices for the observer-effect
  // correction. Every probe record that happened *inside* a span left its
  // own cost (clock reads, stack ops, cell update) in that span's total;
  // D(s) below is the expected number of descendant records per span of
  // stage s, from the edge counts themselves:
  //   D(s) = sum_c count(s,c)/spans(s) * (1 + D(c))
  // Each edge total then sheds count * (probe_in + D(s) * probe_total)
  // ticks: the inflation its own empty-span gap plus its descendants'
  // probes contributed. Cycles (impossible for real nesting, possible
  // with hand-fed record() data) terminate by treating a back edge's
  // D as 0.
  std::uint64_t counts[kStageCount][kStageCount] = {};
  double totals[kStageCount][kStageCount] = {};
  double spans_into[kStageCount] = {};
  for (std::size_t p = 0; p < kStageCount; ++p) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      for (std::size_t lane = 0; lane < kMaxLanes; ++lane) {
        const Cell& c =
            cell(lane, static_cast<Stage>(p), static_cast<Stage>(s));
        counts[p][s] += c.count;
        totals[p][s] += static_cast<double>(c.total);
      }
      spans_into[s] += static_cast<double>(counts[p][s]);
    }
  }
  int state[kStageCount] = {};  // 0 unvisited, 1 in progress, 2 done
  double descend[kStageCount] = {};
  auto dfs = [&](auto&& self, std::size_t s) -> double {
    if (state[s] == 1) return 0.0;
    if (state[s] == 2) return descend[s];
    state[s] = 1;
    double d = 0.0;
    if (spans_into[s] > 0) {
      for (std::size_t c2 = 0; c2 < kStageCount; ++c2) {
        if (counts[s][c2] == 0) continue;
        d += static_cast<double>(counts[s][c2]) *
             (1.0 + self(self, c2)) / spans_into[s];
      }
    }
    state[s] = 2;
    descend[s] = d;
    return d;
  };
  for (std::size_t s = 0; s < kStageCount; ++s) dfs(dfs, s);

  // Pass 2: build the edge list from corrected totals.
  for (std::size_t p = 0; p < kStageCount; ++p) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      if (counts[p][s] == 0) continue;
      EdgeReport e;
      e.parent = static_cast<Stage>(p);
      e.stage = static_cast<Stage>(s);
      std::uint64_t min_ticks = 0;
      std::uint64_t max_ticks = 0;
      for (std::size_t lane = 0; lane < kMaxLanes; ++lane) {
        const Cell& c = cell(lane, e.parent, e.stage);
        if (c.count == 0) continue;
        if (e.count == 0 || c.min < min_ticks) min_ticks = c.min;
        if (c.max > max_ticks) max_ticks = c.max;
        e.count += c.count;
        for (std::size_t b = 0; b < kHistBuckets; ++b) e.hist[b] += c.hist[b];
      }
      const double correction =
          static_cast<double>(counts[p][s]) *
          (probe_in_ticks_ + descend[s] * probe_total_ticks_);
      const double corrected =
          totals[p][s] > correction ? totals[p][s] - correction : 0.0;
      if (scale != 1.0) {
        e.count = static_cast<std::uint64_t>(
            static_cast<double>(e.count) * scale + 0.5);
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
          e.hist[b] = static_cast<std::uint64_t>(
              static_cast<double>(e.hist[b]) * scale + 0.5);
        }
      }
      e.total_ns = corrected * r.ns_per_tick * scale;
      e.min_ns = static_cast<double>(min_ticks) * r.ns_per_tick;
      e.max_ns = static_cast<double>(max_ticks) * r.ns_per_tick;
      r.edges.push_back(e);
    }
  }

  // Pass 3: control-based deflation. The probe-cost model above removes
  // *hot-loop* probe cost, but at a low duty cycle armed probes run cold
  // (their code and cells fall out of cache between blocks) and cost
  // several times the calibration figure, so sampled slices still
  // over-attribute. The control block gives the cure: the measured cost
  // of the same interleaved events with probes disarmed. Rescale every
  // edge so the per-event dispatch cost matches the control — shares
  // between stages keep their measured proportions; only the total drops
  // to what the events cost unprofiled.
  r.control_count = control_count_;
  if (control_count_ > 0) {
    // Winsorized mean over the per-block control slices: the mean is the
    // right center (the wall time this anchor is compared against keeps
    // its share of ordinary host interference, which a median would
    // discard), but one hypervisor steal burst inside a single control
    // block must not drag the anchor the whole report rescales against —
    // so blocks are clamped at 3x the median before averaging.
    const std::size_t n = control_blocks_ < kCtlRing
                              ? static_cast<std::size_t>(control_blocks_)
                              : kCtlRing;
    double per_op[kCtlRing];
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ctl_slice_events_[i] == 0) continue;
      per_op[m++] = static_cast<double>(ctl_slice_ticks_[i]) /
                    static_cast<double>(ctl_slice_events_[i]);
    }
    if (m > 0) {
      std::nth_element(per_op, per_op + m / 2, per_op + m);
      const double cap = 3.0 * per_op[m / 2];
      double sum = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        sum += per_op[i] < cap ? per_op[i] : cap;
      }
      r.control_ns_per_op = sum / static_cast<double>(m) * r.ns_per_tick;
    } else {
      r.control_ns_per_op = static_cast<double>(control_total_) /
                            static_cast<double>(control_count_) *
                            r.ns_per_tick;
    }
    const std::size_t root_i = static_cast<std::size_t>(Stage::kRoot);
    const std::size_t disp_i = static_cast<std::size_t>(Stage::kSimDispatch);
    const std::uint64_t disp_count = counts[root_i][disp_i];
    for (const EdgeReport& e : r.edges) {
      if (e.parent != Stage::kRoot || e.stage != Stage::kSimDispatch ||
          disp_count == 0 || e.total_ns <= 0) {
        continue;
      }
      const double sampled_ns_per_op =
          e.total_ns / (static_cast<double>(disp_count) * scale);
      if (sampled_ns_per_op > r.control_ns_per_op) {
        r.deflation = r.control_ns_per_op / sampled_ns_per_op;
      }
      break;
    }
    if (r.deflation < 1.0) {
      for (EdgeReport& e : r.edges) e.total_ns *= r.deflation;
    }
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
  const Report r = report();
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
  out += ",\n" + pad2 +
         "\"sample_stride\": " + std::to_string(r.sample_stride);
  out += ",\n" + pad2 +
         "\"sample_block\": " + std::to_string(r.sample_block);
  out += ",\n" + pad2 + "\"probe_cost_ns\": ";
  append_num(out, r.probe_cost_ns);
  out += ",\n" + pad2 +
         "\"control_count\": " + std::to_string(r.control_count);
  out += ",\n" + pad2 + "\"control_ns_per_op\": ";
  append_num(out, r.control_ns_per_op);
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
