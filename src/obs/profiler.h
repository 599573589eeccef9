// Wall-clock cost attribution: where do the nanoseconds go?
//
// Everything else in src/obs runs on the *sim* clock; this subsystem is
// the one deliberate exception. It attributes host wall-clock time to
// pipeline stages so the repo can answer questions the virtual clock
// cannot — e.g. ROADMAP item 5: which stage burns the table3 miss-path's
// extra nanoseconds? (See docs/OBSERVABILITY.md "Where the nanoseconds
// go" for a worked example.)
//
// Design, mirroring MetricsRegistry's cell discipline:
//   * A fixed compile-time stage registry (Stage enum + names). Probes
//     index cells by enum — no string hashing, no lookups, no allocation
//     on the hot path.
//   * Scoped probes (DNSGUARD_PROF_SCOPE) read a calibrated TSC
//     (steady_clock calibrates ticks -> ns once, at enable time) and
//     maintain a small nested-span stack per shard lane, so a span's
//     parent is whatever span encloses it on that lane.
//   * Span ends accumulate count / total / min / max / log2-bucket
//     histograms into per-(parent, stage) cells, kept per lane and merged
//     only at report time — exactly how per-shard metric cells work.
//   * Zero cost when disabled: at runtime a disarmed probe is one load
//     and one predictable branch; defining DNSGUARD_PROFILER_DISABLED in
//     a translation unit compiles its probe macros out entirely.
//
// All values accumulate in raw ticks; conversion to nanoseconds happens
// once, in report()/report_json() (cold). The probes themselves never
// multiply, divide or allocate.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dnsguard::obs::prof {

/// The stage registry. Fixed at compile time: adding a probe site means
/// adding an enumerator here and a name in stage_name() — nothing is
/// registered at runtime, so probes cost an array index, never a lookup.
enum class Stage : std::uint8_t {
  kRoot = 0,          // implicit bottom of every span stack
  kSimDispatch,       // EventQueue event dispatch (one slice per event)
  kNodeService,       // Node::process, node kinds without their own stage
  kDriverService,     // workload drivers / stub resolvers
  kAttackService,     // attack generators
  kAnsService,        // authoritative server (BIND-model or simulator)
  kResolverService,   // recursive resolver
  kGuardService,      // guard process(): classify + per-scheme handling
  kOutboxFlush,       // Node::flush_outbox_at release event
  kGuardDecode,       // dns::Message::decode of an incoming request
  kGuardMint,         // cookie mint / cookie-label / cookie-address make
  kGuardVerify,       // per-packet cookie verification (any encoding)
  kGuardRl1,          // Rate-Limiter1: SpaceSaving + bucket table + bucket
  kGuardRl2,          // Rate-Limiter2: bucket table find + token consume
  kGuardNat,          // TCP-proxy NAT allocate / response rewrite
  kGuardTcpProxy,     // guard TCP path (SYN-cookie stack + proxy)
  kCookieHash,        // crypto::CookieHasher::compute (one MD5 block)
  kCount
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount);
/// Shard lanes tracked independently (merged at report time). Every node
/// serves lane 0 by default; sharded nodes use their lane index.
inline constexpr std::size_t kMaxLanes = 17;
/// Maximum span nesting per lane. Deeper spans are counted (overflow) and
/// dropped rather than recorded with a wrong parent.
inline constexpr std::size_t kMaxDepth = 16;
/// log2 histogram buckets: bucket i counts spans of [2^i, 2^(i+1)) ticks
/// (bucket 0 also holds zero-tick spans). 2^39 ticks is ~minutes at any
/// plausible TSC rate, so the last bucket saturates harmlessly.
inline constexpr std::size_t kHistBuckets = 40;

/// Human-readable stage name (e.g. "guard.verify"); never nullptr.
[[nodiscard]] const char* stage_name(Stage s) noexcept;

/// Reads the raw timestamp counter. On x86-64 this is rdtsc (unserialized
/// — span boundaries tolerate a few cycles of skew in exchange for probes
/// staying ~nanoseconds); elsewhere it falls back to steady_clock, which
/// calibrate() then measures at ~1 ns/tick.
[[nodiscard]] inline std::uint64_t rdtick() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// One merged (parent, stage) accumulator, converted to nanoseconds.
struct EdgeReport {
  Stage parent = Stage::kRoot;
  Stage stage = Stage::kRoot;
  std::uint64_t count = 0;
  double total_ns = 0;
  double min_ns = 0;
  double max_ns = 0;
  /// Bucket i counts spans of [2^i, 2^(i+1)) ticks; multiply bucket
  /// bounds by ns_per_tick to place them on a nanosecond axis.
  std::array<std::uint64_t, kHistBuckets> hist{};
};

struct Report {
  double ns_per_tick = 1.0;
  std::uint64_t mismatched_spans = 0;
  std::uint64_t overflow_spans = 0;
  /// Calibrated cost of one armed probe (Scope begin+end pair), already
  /// subtracted from edge totals — see "observer-effect correction" in
  /// Profiler::report().
  double probe_cost_ns = 0.0;
  /// Control sample: dispatch slices timed on *disarmed* events (probes
  /// off), interleaved with the armed blocks by DispatchWindow. This is
  /// the true unprofiled cost of an event on the same workload; report()
  /// rescales all edges by `deflation` so attribution sums to what the
  /// events cost without probes, not with them.
  std::uint64_t control_count = 0;
  double control_ns_per_op = 0.0;
  double deflation = 1.0;
  /// Sampling configuration the data was captured under; counts, totals
  /// and histograms in `edges` are already scaled by stride/block, so
  /// they estimate the full (unsampled) run. min/max stay raw (observed).
  std::uint32_t sample_stride = 1;
  std::uint32_t sample_block = 1;
  std::vector<EdgeReport> edges;  // zero cells omitted

  /// Total nanoseconds attributed directly under the root context — the
  /// non-double-counting sum (child spans nest inside their parents).
  [[nodiscard]] double root_total_ns() const;
};

/// The cost-attribution engine. One global instance (`profiler` below)
/// serves the whole process: probes live in code with no Simulator
/// handle (crypto, ratelimit), and the simulator is single-threaded, so
/// per-lane cells need no synchronization.
class Profiler {
 public:
  constexpr Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Calibrates the tick clock on first use and allocates the cell matrix
  /// (the only allocation in the subsystem — never on the hot path).
  /// Accumulated cells persist across disable()/enable() cycles so
  /// recording can pause and resume cheaply; call reset() for a clean
  /// measurement window.
  void enable();
  /// Stops recording; accumulated cells stay readable via report().
  void disable();
  /// Zeroes every cell, span stack and quality counter. Calibration is
  /// kept: reset() is cheap enough to call per measurement window.
  void reset();

  /// Current shard lane for span attribution, in [0, kMaxLanes).
  void set_lane(std::size_t lane) noexcept {
    lane_ = lane < kMaxLanes ? lane : 0;
  }
  [[nodiscard]] std::size_t lane() const noexcept { return lane_; }

  /// Event sampling: the dispatch loop arms probes for the first `block`
  /// events of every `stride` (so the duty cycle is block/stride) and the
  /// report scales totals/counts back up by stride/block. Full profiling
  /// is stride 1 (the default). Sampling is what keeps the enabled-mode
  /// wall overhead inside the benches' 2% gate: a non-sampled event costs
  /// one branch per probe site, exactly like disabled mode. A prime
  /// stride (e.g. 127) avoids aliasing with the event pattern's period.
  void set_sampling(std::uint32_t stride, std::uint32_t block) noexcept {
    sample_stride_ = stride < 1 ? 1 : stride;
    sample_block_ = block < 1 ? 1 : (block > sample_stride_ ? sample_stride_
                                                            : block);
  }
  [[nodiscard]] std::uint32_t sample_stride() const noexcept {
    return sample_stride_;
  }
  [[nodiscard]] std::uint32_t sample_block() const noexcept {
    return sample_block_;
  }

  /// True while probes should record (enabled AND inside a sampled block).
  /// This is the one load every disarmed probe site pays.
  [[nodiscard]] bool recording() const noexcept { return recording_; }
  /// Flipped by DispatchWindow at sampled-block boundaries; forced false
  /// while disabled.
  void set_recording(bool r) noexcept { recording_ = r && enabled_; }

  /// Parent stage adopted by spans that open on an *empty* lane stack.
  /// The dispatch loop pins kSimDispatch here so node-level spans nest
  /// under dispatch even though the loop itself is not a Scope.
  void set_context(Stage s) noexcept { context_ = s; }
  [[nodiscard]] Stage context() const noexcept { return context_; }

  // --- hot-path probes (allocation-free; see tools/lint HOT_PATH_ROOTS) ----

  /// Opens a span on the current lane. False (and counted) on overflow.
  bool span_begin(Stage s) noexcept {
    LaneState& ls = lane_state_[lane_];
    if (ls.depth >= kMaxDepth) {
      ++overflow_spans_;
      return false;
    }
    ls.stack[ls.depth++] = s;
    return true;
  }

  /// Closes the innermost span, accumulating `dt_ticks` under its parent.
  /// A close that does not match the open stack top is counted as
  /// mismatched and the lane's stack is abandoned (reset) rather than
  /// mis-attributed.
  void span_end(Stage s, std::uint64_t dt_ticks) noexcept {
    LaneState& ls = lane_state_[lane_];
    if (ls.depth == 0 || ls.stack[ls.depth - 1] != s) {
      ++mismatched_spans_;
      ls.depth = 0;
      return;
    }
    --ls.depth;
    const Stage parent = ls.depth > 0 ? ls.stack[ls.depth - 1] : context_;
    record(parent, s, dt_ticks);
  }

  /// Accumulates one *control* slice: `dt_ticks` spent dispatching
  /// `events` consecutive events with probes disarmed. DispatchWindow
  /// times one disarmed block per stride — as a single slice, so control
  /// events pay no per-event clock read at all — and report() measures
  /// the armed blocks' observer effect against this probe-free cost of
  /// the same interleaved workload. Slices also land in a fixed ring so
  /// report() can take a per-block *median*: a hypervisor steal burst
  /// inside one control block would otherwise drag the whole mean.
  void record_control(std::uint64_t dt_ticks, std::uint32_t events) noexcept {
    control_total_ += dt_ticks;
    control_count_ += events;
    ctl_slice_ticks_[control_blocks_ % kCtlRing] = dt_ticks;
    ctl_slice_events_[control_blocks_ % kCtlRing] = events;
    ++control_blocks_;
  }
  [[nodiscard]] std::uint64_t control_count() const noexcept {
    return control_count_;
  }

  /// Accumulates one sample into the (parent, stage) cell of the current
  /// lane, bypassing the span stack — the dispatch loop uses this to
  /// charge inter-event slices without a Scope per event.
  void record(Stage parent, Stage s, std::uint64_t dt_ticks) noexcept {
    if (cells_ == nullptr) return;
    Cell& c = cell(lane_, parent, s);
    c.total += dt_ticks;
    if (c.count == 0 || dt_ticks < c.min) c.min = dt_ticks;
    if (dt_ticks > c.max) c.max = dt_ticks;
    ++c.count;
    ++c.hist[bucket_of(dt_ticks)];
  }

  /// log2 bucket index: 0 for v < 2, else floor(log2 v), saturating.
  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t v) noexcept {
    if (v < 2) return 0;
    const auto b = static_cast<std::size_t>(std::bit_width(v)) - 1;
    return b < kHistBuckets ? b : kHistBuckets - 1;
  }

  // --- reporting (cold) ----------------------------------------------------

  [[nodiscard]] double ns_per_tick() const noexcept { return ns_per_tick_; }
  [[nodiscard]] std::uint64_t mismatched_spans() const noexcept {
    return mismatched_spans_;
  }
  [[nodiscard]] std::uint64_t overflow_spans() const noexcept {
    return overflow_spans_;
  }

  /// Calibrated per-probe costs in ticks (see calibrate_probe_cost()).
  /// `in` is what an empty span *records* (the ticks between a Scope's two
  /// clock reads); `total` is what one armed begin/end pair costs its
  /// surroundings. Tests pin these to 0 to get uncorrected arithmetic
  /// (set them *after* enable(), which recalibrates when total <= 0).
  void set_probe_cost(double in_ticks, double total_ticks) noexcept {
    probe_in_ticks_ = in_ticks;
    probe_total_ticks_ = total_ticks;
  }
  [[nodiscard]] double probe_total_ticks() const noexcept {
    return probe_total_ticks_;
  }

  /// Merges all lanes' cells into one edge list (ticks -> ns), applying
  /// the observer-effect correction: an *armed* probe's cost lands inside
  /// every enclosing span, so each edge's total is reduced by the
  /// calibrated probe cost times the expected number of probe records
  /// nested inside it. Without this, sampled profiles over-attribute by
  /// the full probe cost of every sampled event (measured ~35% on the
  /// table3 hit path) while unsampled events run probe-free.
  [[nodiscard]] Report report() const;

  /// The "profile" JSON object benches embed. When `measured_wall_ns` is
  /// positive, every edge carries its share of that wall time and the
  /// object reports the root-attributed coverage ("root_share" — the
  /// >= 90% acceptance figure). `indent` is the base indentation of the
  /// object's closing brace, matching TimeSeriesSampler::to_json.
  [[nodiscard]] std::string report_json(double measured_wall_ns,
                                        int indent = 2) const;

 private:
  struct Cell {
    std::uint64_t count;
    std::uint64_t total;
    std::uint64_t min;
    std::uint64_t max;
    std::uint64_t hist[kHistBuckets];
  };
  struct LaneState {
    Stage stack[kMaxDepth];
    std::uint32_t depth;
  };

  [[nodiscard]] Cell& cell(std::size_t lane, Stage parent,
                           Stage s) noexcept {
    return cells_[(lane * kStageCount + static_cast<std::size_t>(parent)) *
                      kStageCount +
                  static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const Cell& cell(std::size_t lane, Stage parent,
                                 Stage s) const noexcept {
    return cells_[(lane * kStageCount + static_cast<std::size_t>(parent)) *
                      kStageCount +
                  static_cast<std::size_t>(s)];
  }

  void calibrate();
  void calibrate_probe_cost();

  bool enabled_ = false;
  bool recording_ = false;
  std::uint32_t sample_stride_ = 1;
  std::uint32_t sample_block_ = 1;
  std::size_t lane_ = 0;
  Stage context_ = Stage::kRoot;
  Cell* cells_ = nullptr;  // kMaxLanes*kStageCount^2, allocated on enable
  LaneState lane_state_[kMaxLanes] = {};
  std::uint64_t mismatched_spans_ = 0;
  std::uint64_t overflow_spans_ = 0;
  double ns_per_tick_ = 0.0;       // 0 = not yet calibrated
  double probe_in_ticks_ = 0.0;    // ticks an empty span records
  double probe_total_ticks_ = 0.0; // ticks one begin/end pair costs
  /// Ring of recent control slices for the median estimator (2 KiB; a
  /// quick bench window produces ~100 control blocks, a full one ~450 —
  /// the median over the most recent kCtlRing is plenty either way).
  static constexpr std::size_t kCtlRing = 256;
  std::uint64_t control_total_ = 0;
  std::uint64_t control_count_ = 0;
  std::uint64_t control_blocks_ = 0;
  std::uint64_t ctl_slice_ticks_[kCtlRing] = {};
  std::uint32_t ctl_slice_events_[kCtlRing] = {};
};

/// The process-wide profiler instance every probe indexes into.
inline constinit Profiler profiler;

/// RAII span probe. Disarmed (one branch) when profiling is off.
class Scope {
 public:
  explicit Scope(Stage s) noexcept : stage_(s) {
    armed_ = profiler.recording() && profiler.span_begin(s);
    if (armed_) start_ = rdtick();
  }
  ~Scope() {
    if (armed_) profiler.span_end(stage_, rdtick() - start_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint64_t start_ = 0;
  Stage stage_;
  bool armed_;
};

/// RAII lane selector for shard service bursts (Node::serve_lane).
class LaneScope {
 public:
  explicit LaneScope(std::size_t lane) noexcept : prev_(profiler.lane()) {
    profiler.set_lane(lane);
  }
  ~LaneScope() { profiler.set_lane(prev_); }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  std::size_t prev_;
};

/// Per-event dispatch accounting for the simulator's run loop: one tick
/// read per sampled event (the previous slice's end is the next one's
/// start) instead of a full Scope, and kSimDispatch pinned as the context
/// so node-level spans parent under it. The window drives the profiler's
/// event sampling: probes are armed only for the first `sample_block`
/// events of each `sample_stride` — a non-sampled event costs this loop
/// one branch and two compares, and every probe site a single load.
class DispatchWindow {
 public:
  DispatchWindow() noexcept {
    armed_ = profiler.enabled();
    if (armed_) {
      stride_ = profiler.sample_stride();
      block_ = profiler.sample_block();
      // A *control* block of disarmed events midway through each stride,
      // when the duty cycle leaves room for one. It is timed as a single
      // slice, so its length is nearly free (two clock reads total) —
      // make it 4x the sample block: the control mean anchors the
      // report's deflation and coverage figures, and a longer block cuts
      // their variance against bursty host interference. Its job is to
      // measure what events cost probe-free, so report() can rescale the
      // armed blocks' inflated attribution (armed probes run cold at low
      // duty and cost several times their hot-loop calibration).
      if (stride_ >= 2 * block_) {
        ctl_start_ = stride_ / 2;
        const std::uint32_t room = stride_ - ctl_start_;
        ctl_len_ = 4 * block_ < room ? 4 * block_ : room;
      } else {
        ctl_start_ = stride_;
        ctl_len_ = 0;
      }
      prev_context_ = profiler.context();
      profiler.set_context(Stage::kSimDispatch);
      profiler.set_recording(true);  // phase 0 is always in-block
      last_ = rdtick();
    }
  }
  ~DispatchWindow() {
    if (armed_) {
      profiler.set_context(prev_context_);
      profiler.set_recording(true);  // outside the loop: full recording
    }
  }
  DispatchWindow(const DispatchWindow&) = delete;
  DispatchWindow& operator=(const DispatchWindow&) = delete;

  /// Call once after each dispatched event.
  void tick() noexcept {
    if (!armed_) return;
    const std::uint32_t p = phase_;
    phase_ = p + 1 == stride_ ? 0 : p + 1;
    const bool cur = p < block_;       // was the finished event sampled?
    const bool nxt = phase_ < block_;  // will the next one be?
    // Unsigned wrap makes `p - ctl_start_ < ctl_len_` a one-compare test
    // for p in [ctl_start_, ctl_start_ + ctl_len_). The control block is
    // timed as a single slice — clock reads only at its two boundaries —
    // so the events inside it run exactly as they would unprofiled.
    const bool ctl_cur = p - ctl_start_ < ctl_len_;
    const bool ctl_nxt = phase_ - ctl_start_ < ctl_len_;
    if (cur || nxt || ctl_cur != ctl_nxt) {
      const std::uint64_t t = rdtick();
      if (cur) {
        profiler.record(Stage::kRoot, Stage::kSimDispatch, t - last_);
      } else if (ctl_cur && !ctl_nxt) {
        profiler.record_control(t - last_, ctl_len_);
      }
      last_ = t;
    }
    if (cur != nxt) profiler.set_recording(nxt);
  }

 private:
  std::uint64_t last_ = 0;
  std::uint32_t phase_ = 0;
  std::uint32_t stride_ = 1;
  std::uint32_t block_ = 1;
  std::uint32_t ctl_start_ = 1;
  std::uint32_t ctl_len_ = 0;
  Stage prev_context_ = Stage::kRoot;
  bool armed_;
};

}  // namespace dnsguard::obs::prof

// Probe macros. A translation unit compiled with DNSGUARD_PROFILER_DISABLED
// drops its probes entirely — not even the disarmed branch survives — which
// is the compile-time half of the zero-cost-when-disabled contract (the
// runtime half is Scope's single-branch disarm).
#if defined(DNSGUARD_PROFILER_DISABLED)
#define DNSGUARD_PROF_COMPILED_IN 0
#define DNSGUARD_PROF_SCOPE(stage) static_cast<void>(0)
#else
#define DNSGUARD_PROF_COMPILED_IN 1
#define DNSGUARD_PROF_CONCAT2(a, b) a##b
#define DNSGUARD_PROF_CONCAT(a, b) DNSGUARD_PROF_CONCAT2(a, b)
#define DNSGUARD_PROF_SCOPE(stage)                               \
  ::dnsguard::obs::prof::Scope DNSGUARD_PROF_CONCAT(             \
      dnsguard_prof_scope_, __LINE__) {                          \
    (stage)                                                      \
  }
#endif
