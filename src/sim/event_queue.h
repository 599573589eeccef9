// Discrete-event engine: a time-ordered queue of callbacks.
//
// Ties are broken by insertion sequence so the simulation is fully
// deterministic: two events scheduled for the same instant always fire in
// the order they were scheduled.
//
// Implementation: the ordering lives in a 4-ary heap of 16-byte
// (time, seq|slot) keys laid out in one vector, while each event's
// callback sits in a slot pool of small-buffer-optimized InplaceFunctions.
// Slots are allocated in fixed 256-entry chunks whose addresses never
// change, so schedule() constructs the callable directly in its final
// resting place and run_next() invokes it right there — the capture is
// written once and never copied again. Sift operations shuffle
// trivially-copyable keys only. Scheduling costs zero heap allocations in
// steady state: the key vector and chunk pool never shrink, freed slots
// are recycled LIFO (so the hottest slot is reused first), and every
// capture lives in the slot itself; one that does not fit is a compile
// error. The 4-ary shape halves the tree depth of a binary heap, which
// matters when the simulator is draining ~10^7 events per second.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/inplace_function.h"
#include "common/pool.h"
#include "common/time.h"

namespace dnsguard::sim {

// 120-byte inline capacity + 8-byte vtable pointer, over-aligned to 64:
// sizeof(EventFn) == 128 and every slot covers exactly two cache lines
// (both prefetched before invocation).
using EventFn = InplaceFunction<void(), 120, 64>;
static_assert(sizeof(EventFn) == 128 && alignof(EventFn) == 64);

/// Sentinel returned by next_time() on an empty queue: later than any
/// schedulable instant, so `next_time() <= until` loops terminate naturally.
inline constexpr SimTime kNoEventTime{std::numeric_limits<std::int64_t>::max()};

class EventQueue {
 public:
  EventQueue() { heap_.resize(kRoot); }  // indices 0..2 are padding

  /// Schedules `fn` (any callable, built in place in its slot) to run at
  /// absolute time `at`. Events in the past are clamped to "now" by the
  /// Simulator before reaching here.
  template <typename F>
  void schedule(SimTime at, F&& fn) {
    const std::uint32_t s = acquire_slot();
    slot(s) = std::forward<F>(fn);
    // DNSGUARD_LINT_ALLOW(alloc): heap vector reaches steady-state
    // capacity after warmup and push_back then never reallocates; slots
    // recycle through the free list (DESIGN.md section 7)
    heap_.push_back(make_key(at, (next_seq_++ << kSlotBits) | s));
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const { return heap_.size() == kRoot; }
  [[nodiscard]] std::size_t size() const { return heap_.size() - kRoot; }

  /// Earliest scheduled instant, or kNoEventTime if the queue is empty
  /// (the old implementation hit UB via heap_.top() here).
  [[nodiscard]] SimTime next_time() const {
    return empty() ? kNoEventTime : key_time(heap_[kRoot]);
  }

  /// Pops the earliest event, stores its instant in `at_out`, and invokes
  /// its callback in place — no move out of the slot. Returns false (and
  /// leaves `at_out` untouched) on an empty queue. The callback may
  /// schedule further events (chunked slots never move), but must not
  /// re-enter run_next()/pop(). This is the Simulator's drain primitive;
  /// `at_out` is typically the simulator clock, updated before the event
  /// body runs.
  bool run_next(SimTime& at_out) {
    if (empty()) return false;
    const std::uint32_t s = pop_key(at_out);
    EventFn& fn = slot(s);
    fn();
    fn.reset();
    // DNSGUARD_LINT_ALLOW(alloc): the free list never holds more than the
    // slots ever allocated, so its capacity settles at the peak number of
    // pending events and push_back then never reallocates
    free_.push_back(s);
    return true;
  }

  /// Removes and returns the earliest event's callback without running it.
  /// On an empty queue returns a null callback (check with `if (fn)`)
  /// instead of corrupting the heap.
  EventFn pop(SimTime& at_out) {
    if (empty()) {
      at_out = kNoEventTime;
      return EventFn{};
    }
    const std::uint32_t s = pop_key(at_out);
    EventFn fn = std::move(slot(s));  // leaves the slot null
    // DNSGUARD_LINT_ALLOW(alloc): bounded by the slots ever allocated, as
    // in run_next()
    free_.push_back(s);
    return fn;
  }

  /// Pre-grows the key vector and slot freelist (benchmarks; optional).
  void reserve(std::size_t n) {
    heap_.reserve(n + kRoot);
    free_.reserve(n);
  }

 private:
  // 16-byte heap key: `hi` is the event time with the sign bit flipped
  // (so signed time order matches unsigned order) and `lo` is
  // seq<<24 | slot. Comparing (hi, lo) lexicographically orders by
  // (time, seq) — no two events share a seq, so the slot bits never
  // decide. The two-word branchy compare beats a single 128-bit compare
  // here: times almost always differ, so the first branch predicts nearly
  // perfectly and the lo word is rarely even loaded. 24 slot bits bound
  // pending events at 16.7M (≈2 GB of slots — far beyond any simulation
  // here); 40 seq bits wrap after 10^12 events, and a wrap could only
  // reorder same-instant events scheduled astride it.
  struct Key {
    std::uint64_t hi;  // sign-flipped at_ns
    std::uint64_t lo;  // seq_slot
  };
  static Key make_key(SimTime at, std::uint64_t seq_slot) {
    return Key{static_cast<std::uint64_t>(at.ns) ^ (1ull << 63), seq_slot};
  }
  static SimTime key_time(Key k) {
    return SimTime{static_cast<std::int64_t>(k.hi ^ (1ull << 63))};
  }
  static std::uint32_t key_slot(Key k) {
    return static_cast<std::uint32_t>(k.lo & kSlotMask);
  }
  static bool before(const Key& a, const Key& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.lo < b.lo;
  }
  static_assert(sizeof(Key) == 16);

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  // The root lives at physical index 3 so every 4-key sibling group starts
  // at an index ≡ 0 (mod 4): with 16-byte keys and the heap vector's
  // 64-byte-aligned storage, one sibling group == one cache line, and a
  // sift touches one line per level. children(p) = 4p-8 .. 4p-5;
  // parent(c) = (c+8)/4.
  static constexpr std::size_t kRoot = 3;

  static void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
    __builtin_prefetch(static_cast<const char*>(p) + 64);
#else
    (void)p;
#endif
  }

  [[nodiscard]] EventFn& slot(std::uint32_t s) {
    return chunks_[s >> kChunkShift][s & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    if ((slot_count_ >> kChunkShift) == chunks_.size()) {
      // DNSGUARD_LINT_ALLOW(alloc): a chunk is added only when every slot
      // is pending, i.e. past the peak event count; chunks are never freed
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
    }
    return slot_count_++;
  }

  /// Removes the heap root, returning its slot index via the return value
  /// and its instant via `at_out`. Caller guarantees non-empty.
  std::uint32_t pop_key(SimTime& at_out) {
    const Key top = heap_[kRoot];
    at_out = key_time(top);
    const std::uint32_t s = key_slot(top);
    // The slot was written a full window ago and is usually cache-cold by
    // now; start the fetch so it overlaps the sift below.
    prefetch(&slot(s));
    heap_[kRoot] = heap_.back();
    heap_.pop_back();
    if (!empty()) sift_down(kRoot);
    return s;
  }

  void sift_up(std::size_t i) {
    if (i == kRoot) return;
    const Key k = heap_[i];
    while (i > kRoot) {
      const std::size_t parent = (i + 8) >> 2;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  // Bottom-up variant: the reseated key comes from the heap's last slot,
  // so it almost always belongs near the leaves. Sinking the hole all the
  // way down first (3 compares/level) and then floating the key back up
  // (rarely more than one level) beats the textbook loop's 4 compares per
  // level.
  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Key k = heap_[i];
    std::size_t hole = i;
    while (true) {
      const std::size_t first = 4 * hole - 8;
      std::size_t best;
      if (first + 4 <= n) {
        // Full sibling group (the common case): a 2+1 tournament. The two
        // first-round compares are independent, so they overlap instead of
        // forming the serial loop's three-deep dependency chain.
        const std::size_t a =
            first + (before(heap_[first + 1], heap_[first]) ? 1 : 0);
        const std::size_t b =
            first + 2 + (before(heap_[first + 3], heap_[first + 2]) ? 1 : 0);
        best = before(heap_[b], heap_[a]) ? b : a;
      } else if (first < n) {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
      } else {
        break;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    while (hole > i) {
      const std::size_t parent = (hole + 8) >> 2;
      if (!before(k, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = k;
  }

  // 4-ary min-heap of keys; root at kRoot, cache-line-aligned groups.
  std::vector<Key, CacheAlignedAlloc<Key>> heap_;
  std::vector<std::unique_ptr<EventFn[]>> chunks_;  // stable slot storage
  std::vector<std::uint32_t> free_;  // recycled slot indices, LIFO
  std::uint32_t slot_count_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dnsguard::sim
