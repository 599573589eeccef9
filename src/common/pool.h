// Allocation helpers for the simulator's hot paths.
//
//  - CacheAlignedAlloc: cache-line-aligned storage for the event queue.
//
//  - BufferPool: recycles `Bytes` payload buffers. A packet's payload is
//    drawn from the pool when a DNS message is serialized (or a relayed
//    packet copied) and goes back when the packet ends: consumed by its
//    destination node (Node::serve_lane), or discarded by the simulator
//    (no route, in-flight loss, a full receive queue). Every buffer the
//    pool hands out or keeps holds at least kDefaultReserve (512) bytes,
//    a whole UDP DNS message, so no encode into a pooled buffer grows it.
//
// Everything here is single-threaded by design (the discrete-event
// simulator owns one thread); the buffer pool is thread_local so
// independent simulators in test processes never contend or cross-free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace dnsguard {

/// Minimal std::vector allocator handing out cache-line-aligned storage.
/// The event queue's key heap uses it so each 4-key sibling group occupies
/// exactly one 64-byte line.
template <typename T>
struct CacheAlignedAlloc {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAlloc() = default;
  template <typename U>
  CacheAlignedAlloc(const CacheAlignedAlloc<U>&) {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), kAlign);
  }
  template <typename U>
  bool operator==(const CacheAlignedAlloc<U>&) const {
    return true;
  }
};

/// Recycles Bytes buffers: acquire() pops a warmed buffer (cleared, capacity
/// intact), release() pushes one back. The pool is bounded so a burst never
/// pins unbounded memory, and it keeps only buffers of at least
/// kDefaultReserve bytes, so a hint up to that size never grows one.
class BufferPool {
 public:
  static constexpr std::size_t kMaxPooled = 1024;
  static constexpr std::size_t kDefaultReserve = 512;

  /// A cleared buffer with at least `reserve_hint` (and at least
  /// kDefaultReserve) bytes of capacity.
  [[nodiscard]] Bytes acquire(std::size_t reserve_hint = kDefaultReserve) {
    if (!free_.empty()) {
      Bytes b = std::move(free_.back());
      free_.pop_back();
      b.clear();
      if (b.capacity() < reserve_hint) b.reserve(reserve_hint);
      hits_++;
      return b;
    }
    misses_++;
    Bytes b;
    b.reserve(std::max(reserve_hint, kDefaultReserve));
    return b;
  }

  /// Returns a buffer to the pool. One smaller than kDefaultReserve is
  /// not kept (an encode would have to grow it); past the cap the buffer
  /// just frees normally.
  void release(Bytes&& b) {
    if (b.capacity() < kDefaultReserve || free_.size() >= kMaxPooled) return;
    // DNSGUARD_LINT_ALLOW(alloc): free-list push reuses capacity after
    // warmup (bounded by kMaxPooled); this is the recycling that keeps
    // the rest of the hot path allocation-free
    free_.push_back(std::move(b));
  }

  [[nodiscard]] std::size_t pooled() const { return free_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

  /// The per-thread pool shared by packet encode paths and node sinks.
  static BufferPool& local() {
    thread_local BufferPool pool;
    return pool;
  }

 private:
  std::vector<Bytes> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dnsguard
