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
//     maintain one small nested-span stack, so a span's parent is
//     whatever span encloses it. The simulator is single-threaded, so
//     spans of every node and shard lane nest LIFO on that one stack.
//   * Span ends accumulate count / total / min / max / log2-bucket
//     histograms into one cell per (parent, stage) edge.
//   * The dispatch loop arms probes for the first kSampleBlock events of
//     every kSampleStride and counts both; the report scales cells by
//     events / sampled events, and by one wall-time factor (`deflation`)
//     when the caller passes the window's measured wall time.
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
/// Maximum span nesting. Deeper spans are counted (overflow) and dropped
/// rather than recorded with a wrong parent.
inline constexpr std::size_t kMaxDepth = 16;
/// log2 histogram buckets: bucket i counts spans of [2^i, 2^(i+1)) ticks
/// (bucket 0 also holds zero-tick spans). 2^39 ticks is ~minutes at any
/// plausible TSC rate, so the last bucket saturates harmlessly.
inline constexpr std::size_t kHistBuckets = 40;

/// Event sampling: the dispatch loop arms probes for the first
/// kSampleBlock events of every kSampleStride (~0.25% duty) — that is what
/// keeps the enabled-mode wall overhead inside table3's 2% gate, since a
/// non-sampled event costs every probe site one load, exactly like
/// disabled mode. The stride is prime against event-pattern aliasing; the
/// block is long enough that re-arming cold probes amortizes across it.
inline constexpr std::uint32_t kSampleStride = 6361;
inline constexpr std::uint32_t kSampleBlock = 16;

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
  /// Events the dispatch loop ran while profiling, and how many of them
  /// ran with probes armed. Counts, totals and histograms in `edges` are
  /// scaled by events / sampled_events (1 when no loop ran), so they
  /// estimate the full run; min/max stay raw (observed).
  std::uint64_t events = 0;
  std::uint64_t sampled_events = 0;
  /// Measured wall / root total, applied to every edge's total when the
  /// scaled root total exceeded the measured wall time; 1 otherwise.
  /// Armed probes run cold at this duty cycle, so sampled slices read
  /// longer than the same events cost unprofiled.
  double deflation = 1.0;
  std::vector<EdgeReport> edges;  // zero cells omitted

  /// Total nanoseconds attributed directly under the root context — the
  /// non-double-counting sum (child spans nest inside their parents).
  [[nodiscard]] double root_total_ns() const;
};

/// The cost-attribution engine. One global instance (`profiler` below)
/// serves the whole process: probes live in code with no Simulator
/// handle (crypto, ratelimit), and the simulator is single-threaded, so
/// one span stack and one cell matrix need no synchronization.
class Profiler {
 public:
  constexpr Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Calibrates the tick clock on first use. Accumulated cells persist
  /// across disable()/enable() cycles so recording can pause and resume
  /// cheaply; call reset() for a clean measurement window.
  void enable();
  /// Stops recording; accumulated cells stay readable via report().
  void disable();
  /// Zeroes every cell, the span stack, the event counts and the quality
  /// counters. Calibration is kept: reset() is cheap enough to call per
  /// measurement window.
  void reset();

  /// True while probes should record (enabled AND inside a sampled block).
  /// This is the one load every disarmed probe site pays.
  [[nodiscard]] bool recording() const noexcept { return recording_; }
  /// Flipped by DispatchWindow at sampled-block boundaries; forced false
  /// while disabled.
  void set_recording(bool r) noexcept { recording_ = r && enabled_; }

  /// Parent stage adopted by spans that open on an *empty* stack. The
  /// dispatch loop pins kSimDispatch here so node-level spans nest under
  /// dispatch even though the loop itself is not a Scope.
  void set_context(Stage s) noexcept { context_ = s; }
  [[nodiscard]] Stage context() const noexcept { return context_; }

  // --- hot-path probes (allocation-free; see tools/lint HOT_PATH_ROOTS) ----

  /// Opens a span. False (and counted) on overflow.
  bool span_begin(Stage s) noexcept {
    if (depth_ >= kMaxDepth) {
      ++overflow_spans_;
      return false;
    }
    stack_[depth_++] = s;
    return true;
  }

  /// Closes the innermost span, accumulating `dt_ticks` under its parent.
  /// A close that does not match the open stack top is counted as
  /// mismatched and the stack is abandoned (reset) rather than
  /// mis-attributed.
  void span_end(Stage s, std::uint64_t dt_ticks) noexcept {
    if (depth_ == 0 || stack_[depth_ - 1] != s) {
      ++mismatched_spans_;
      depth_ = 0;
      return;
    }
    --depth_;
    record(depth_ > 0 ? stack_[depth_ - 1] : context_, s, dt_ticks);
  }

  /// Accumulates one sample into the (parent, stage) cell, bypassing the
  /// span stack — the dispatch loop uses this to charge inter-event
  /// slices without a Scope per event.
  void record(Stage parent, Stage s, std::uint64_t dt_ticks) noexcept {
    Cell& c = cells_[static_cast<std::size_t>(parent) * kStageCount +
                     static_cast<std::size_t>(s)];
    c.total += dt_ticks;
    if (c.count == 0 || dt_ticks < c.min) c.min = dt_ticks;
    if (dt_ticks > c.max) c.max = dt_ticks;
    ++c.count;
    ++c.hist[bucket_of(dt_ticks)];
  }

  /// Adds a dispatch loop's tally: `events` run, `sampled` of them with
  /// probes armed. report() scales cells by the ratio of the totals.
  void add_events(std::uint64_t events, std::uint64_t sampled) noexcept {
    events_ += events;
    sampled_events_ += sampled;
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

  /// The cells as an edge list (ticks -> ns), scaled by events / sampled
  /// events. With a positive `measured_wall_ns` (the wall time of the
  /// window the cells cover) and a root total above it, every edge's
  /// total is also multiplied by wall / root total, reported as
  /// `deflation`: sampled slices then sum to the measured wall, and the
  /// stages keep their measured proportions.
  [[nodiscard]] Report report(double measured_wall_ns = 0.0) const;

  /// The "profile" JSON object benches embed. When `measured_wall_ns` is
  /// positive, the report is deflated against it (see report()), every
  /// edge carries its share of that wall time and the object reports the
  /// root-attributed coverage ("root_share" — the >= 90% acceptance
  /// figure). `indent` is the base indentation of the object's closing
  /// brace, matching TimeSeriesSampler::to_json.
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

  void calibrate();

  bool enabled_ = false;
  bool recording_ = false;
  Stage context_ = Stage::kRoot;
  std::uint32_t depth_ = 0;
  Stage stack_[kMaxDepth] = {};
  std::uint64_t mismatched_spans_ = 0;
  std::uint64_t overflow_spans_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t sampled_events_ = 0;
  double ns_per_tick_ = 0.0;  // 0 = not yet calibrated
  /// (parent, stage) cells, row-major by parent (~100 KB).
  Cell cells_[kStageCount * kStageCount] = {};
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

/// Per-event dispatch accounting for the simulator's run loop: one tick
/// read per sampled event (the previous slice's end is the next one's
/// start) instead of a full Scope, and kSimDispatch pinned as the context
/// so node-level spans parent under it. The window drives the event
/// sampling: probes are armed only for the first kSampleBlock events of
/// each kSampleStride — a non-sampled event costs this loop one branch,
/// two compares and a count, and every probe site a single load. The
/// window's event and sampled-event counts go to the profiler when the
/// loop ends.
class DispatchWindow {
 public:
  DispatchWindow() noexcept : armed_(profiler.enabled()) {
    if (armed_) {
      prev_context_ = profiler.context();
      profiler.set_context(Stage::kSimDispatch);
      profiler.set_recording(true);  // phase 0 is always in-block
      last_ = rdtick();
    }
  }
  ~DispatchWindow() {
    if (armed_) {
      profiler.add_events(events_, sampled_);
      profiler.set_context(prev_context_);
      profiler.set_recording(true);  // outside the loop: full recording
    }
  }
  DispatchWindow(const DispatchWindow&) = delete;
  DispatchWindow& operator=(const DispatchWindow&) = delete;

  /// Call once after each dispatched event.
  void tick() noexcept {
    if (!armed_) return;
    ++events_;
    const std::uint32_t p = phase_;
    phase_ = p + 1 == kSampleStride ? 0 : p + 1;
    const bool cur = p < kSampleBlock;       // was the finished event sampled?
    const bool nxt = phase_ < kSampleBlock;  // will the next one be?
    if (cur || nxt) {
      const std::uint64_t t = rdtick();
      if (cur) {
        ++sampled_;
        profiler.record(Stage::kRoot, Stage::kSimDispatch, t - last_);
      }
      last_ = t;
    }
    if (cur != nxt) profiler.set_recording(nxt);
  }

 private:
  std::uint64_t last_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint32_t phase_ = 0;
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
