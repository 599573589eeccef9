// Allocation pools for the simulator's hot paths.
//
// Two pools live here:
//
//  - SlabPool / slab_alloc / slab_free: a freelist of fixed-size blocks for
//    InplaceFunction captures too large for inline storage. Blocks are
//    carved from chunk arrays and never returned to the OS until process
//    exit, so steady-state oversized captures cost a pointer pop/push.
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
// simulator owns one thread); pools are thread_local so independent
// simulators in test processes never contend or cross-free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"

namespace dnsguard {

/// Fixed-size block freelist. `block_size` is rounded up to the chunk
/// element size at construction; blocks are max_align_t-aligned.
class SlabPool {
 public:
  explicit SlabPool(std::size_t block_size, std::size_t blocks_per_chunk = 64)
      : block_size_(round_up(block_size)),
        blocks_per_chunk_(blocks_per_chunk) {}

  [[nodiscard]] void* allocate() {
    if (free_head_ == nullptr) grow();
    FreeNode* node = free_head_;
    free_head_ = node->next;
    live_++;
    return node;
  }

  void deallocate(void* p) {
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_head_;
    free_head_ = node;
    live_--;
  }

  [[nodiscard]] std::size_t block_size() const { return block_size_; }
  [[nodiscard]] std::size_t live_blocks() const { return live_; }
  [[nodiscard]] std::size_t chunks_allocated() const {
    return chunks_.size();
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static std::size_t round_up(std::size_t n) {
    const std::size_t a = alignof(std::max_align_t);
    if (n < sizeof(FreeNode)) n = sizeof(FreeNode);
    return (n + a - 1) / a * a;
  }

  void grow() {
    chunks_.push_back(std::make_unique<std::byte[]>(
        block_size_ * blocks_per_chunk_));
    std::byte* base = chunks_.back().get();
    for (std::size_t i = blocks_per_chunk_; i-- > 0;) {
      deallocate(base + i * block_size_);
      live_++;  // deallocate() decrements; these were never live
    }
  }

  std::size_t block_size_;
  std::size_t blocks_per_chunk_;
  FreeNode* free_head_ = nullptr;
  std::size_t live_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

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

/// Slab block size for oversized InplaceFunction captures. Anything larger
/// still (rare: a capture holding a whole vector of packets) falls through
/// to operator new.
inline constexpr std::size_t kOversizedCaptureSlabBytes = 256;

namespace detail {
inline SlabPool& oversized_capture_pool() {
  thread_local SlabPool pool(kOversizedCaptureSlabBytes);
  return pool;
}
}  // namespace detail

/// Allocates a block for an out-of-line callable of `size`/`align` bytes.
[[nodiscard]] inline void* slab_alloc(std::size_t size, std::size_t align) {
  if (size <= kOversizedCaptureSlabBytes &&
      align <= alignof(std::max_align_t)) {
    return detail::oversized_capture_pool().allocate();
  }
  return ::operator new(size, std::align_val_t(align));
}

/// Frees a block from slab_alloc. Callers must pass the same size/align
/// they allocated with so the pool-vs-heap decision matches (InplaceFunction
/// records them per-type in its vtable).
inline void slab_free(void* p, std::size_t size, std::size_t align) {
  if (size <= kOversizedCaptureSlabBytes &&
      align <= alignof(std::max_align_t)) {
    detail::oversized_capture_pool().deallocate(p);
    return;
  }
  ::operator delete(p, std::align_val_t(align));
}

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
