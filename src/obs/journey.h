// Query journeys: the time-and-causality dimension of the observability
// layer. A journey correlates one client query across every hop of a
// spoof-detection scheme — stub -> LRS -> guard cookie leg(s) -> ANS ->
// back — and attributes latency to each leg (mint, re-query, verify, TCP
// handshake, proxy relay).
//
// Design rules:
//
//   1. Allocation-free on the hot path. All storage (key index, journey
//      pool, completed ring) is sized at enable() time; mark() is a probe
//      into a fixed open-addressed table plus a couple of stores. When the
//      tracker is disabled (the default) every call is one branch.
//   2. Keys are (source IPv4, DNS id, qname hash). Schemes rename the
//      question mid-dance (fabricated NS labels, restored questions) and
//      resolvers re-query under fresh ids, so a journey can carry several
//      keys: alias() teaches the tracker that a new (src, id, qname) tuple
//      belongs to an existing journey.
//   3. Nothing here ever blocks traffic: a full pool evicts the oldest
//      open journey (counted), a full event list drops marks (counted),
//      and an unknown key on mark() just starts a new journey. A mark that
//      can only continue a journey (a client's timeout after the guard
//      ended the query's journey at its drop, a TCP close after the
//      query's journey ended) passes may_open = false, and is dropped on
//      an unknown key instead of starting a second journey.
//
// Completed journeys export as Chrome trace_event JSON: load the file in
// Perfetto (or chrome://tracing) and every journey renders as a track of
// stage slices, one slice per leg.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace dnsguard::obs {

/// Identifies one in-flight query leg. `qhash` is a 32-bit hash of the
/// qname (dns::DomainName::hash32()); 0 is a valid "don't care" used by
/// transport-level marks (TCP handshake legs key on (ip, port, 0)).
struct JourneyKey {
  std::uint32_t src = 0;    // IPv4 source, host order
  std::uint16_t id = 0;     // DNS id (or port for transport legs)
  std::uint32_t qhash = 0;  // qname hash (0 = transport leg)

  /// 64-bit mixed key for the index; never returns 0.
  [[nodiscard]] std::uint64_t packed() const noexcept {
    std::uint64_t v = (static_cast<std::uint64_t>(src) << 32) |
                      (static_cast<std::uint64_t>(qhash ^ id) ^
                       (static_cast<std::uint64_t>(id) << 16));
    // splitmix64-style finalizer: spreads sequential ids across the table.
    v ^= v >> 30;
    v *= 0xbf58476d1ce4e5b9ULL;
    v ^= v >> 27;
    v *= 0x94d049bb133111ebULL;
    v ^= v >> 31;
    return v == 0 ? 1 : v;
  }
};

/// Journey-level counters, bindable to a MetricsRegistry.
struct JourneyStats {
  Counter started;
  Counter completed;
  Counter evicted_open;   // pool full: oldest open journey overwritten
  Counter marks_dropped;  // per-journey event list full
  Counter failed;         // ended with ok=false (drop/timeout)

  void bind(MetricsRegistry& registry, std::string_view prefix) {
    std::string p(prefix);
    registry.attach_counter(p + ".started", started);
    registry.attach_counter(p + ".completed", completed);
    registry.attach_counter(p + ".evicted_open", evicted_open);
    registry.attach_counter(p + ".marks_dropped", marks_dropped);
    registry.attach_counter(p + ".failed", failed);
  }
};

class JourneyTracker {
 public:
  static constexpr std::size_t kMaxEvents = 20;
  static constexpr std::size_t kMaxKeys = 6;  // aliases per journey

  /// One recorded stage boundary. `stage` must point at static storage
  /// (string literals at call sites) — the tracker never copies it.
  struct Event {
    SimTime at{};
    std::string_view stage;
  };

  struct Journey {
    JourneyKey first_key;       // the key of the first mark
    SimTime begin{};            // time of the first mark
    SimTime last{};             // time of the latest mark
    std::uint64_t seq = 0;      // monotonically increasing journey number
    std::uint8_t n_events = 0;
    std::uint8_t n_keys = 0;
    bool ok = true;             // set by end()
    bool ended = false;
    std::array<Event, kMaxEvents> events{};
    std::array<std::uint64_t, kMaxKeys> keys{};  // packed keys incl. aliases

    [[nodiscard]] SimDuration duration() const { return last - begin; }
  };

  JourneyTracker() = default;

  /// Sizes the storage and turns recording on. `active_capacity` bounds
  /// concurrently open journeys; `completed_capacity` bounds the retained
  /// ring of finished ones (oldest overwritten).
  void enable(std::size_t active_capacity = 256,
              std::size_t completed_capacity = 512);
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a stage boundary; starts a journey if the key is unknown
  /// and `may_open` is set (otherwise the mark is dropped). `stage` must
  /// be a string literal (or otherwise outlive the tracker).
  void mark(JourneyKey key, std::string_view stage, SimTime at,
            bool may_open = true);

  /// Registers `additional` as another key of `existing`'s journey (the
  /// renamed question / re-queried id of the next leg). No-op when
  /// `existing` is unknown or the journey's key list is full.
  void alias(JourneyKey existing, JourneyKey additional);

  /// Records the final stage and moves the journey to the completed ring.
  /// Unknown keys start-and-finish a single-event journey (so terminal
  /// sites never lose data just because the begin mark was elsewhere),
  /// unless `may_open` is clear: then the end is dropped.
  void end(JourneyKey key, std::string_view stage, SimTime at, bool ok,
           bool may_open = true);

  [[nodiscard]] std::size_t active_count() const { return active_count_; }
  [[nodiscard]] std::size_t completed_count() const {
    return completed_head_ < completed_.size()
               ? static_cast<std::size_t>(completed_head_)
               : completed_.size();
  }
  /// Completed journeys, oldest first.
  [[nodiscard]] std::vector<Journey> completed() const;
  /// Looks up an open journey (tests).
  [[nodiscard]] const Journey* find(JourneyKey key) const;

  [[nodiscard]] const JourneyStats& stats() const { return stats_; }
  void bind_metrics(MetricsRegistry& registry, std::string_view prefix) {
    stats_.bind(registry, prefix);
  }

  /// Chrome trace_event JSON ("traceEvents" array of "X" slices, one track
  /// per journey) covering the completed ring; `include_open` adds still
  /// open journeys. Load in Perfetto / chrome://tracing.
  [[nodiscard]] std::string to_chrome_json(bool include_open = false) const;
  /// Writes to_chrome_json() to `path`; false on IO error.
  bool write_chrome_json(const std::string& path,
                         bool include_open = false) const;

  /// Drops all open and completed journeys (capacity and enablement keep).
  void clear();

 private:
  struct IndexSlot {
    std::uint64_t key = 0;       // 0 = empty
    std::uint32_t journey = 0;   // pool index
  };
  static constexpr std::uint32_t kNoJourney = 0xffffffffu;
  static constexpr std::size_t kProbeWindow = 8;

  [[nodiscard]] std::uint32_t lookup(std::uint64_t packed) const;
  void index_insert(std::uint64_t packed, std::uint32_t journey);
  void index_remove_journey(const Journey& j);
  std::uint32_t allocate(JourneyKey key, SimTime at);
  void append_event(Journey& j, std::string_view stage, SimTime at);
  void retire(std::uint32_t idx, bool completed_ok);

  bool enabled_ = false;
  std::vector<IndexSlot> index_;     // open addressing, power-of-two size
  std::uint64_t index_mask_ = 0;
  std::vector<Journey> pool_;
  std::vector<std::uint32_t> free_;  // free pool indices
  std::vector<Journey> completed_;   // ring, masked by completed_mask_
  std::uint64_t completed_mask_ = 0;
  std::uint64_t completed_head_ = 0;
  std::size_t active_count_ = 0;
  std::uint32_t evict_cursor_ = 0;
  std::uint64_t next_seq_ = 1;
  JourneyStats stats_;
};

}  // namespace dnsguard::obs
