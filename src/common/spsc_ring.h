// Bounded single-producer/single-consumer ring.
//
// Every sim::Node queues its arrivals in these, one per lane: the delivery
// path pushes arriving packets, the lane's service loop pops them. The
// ring holds at most `limit` items, exactly. Its storage is a power of two
// (push/pop are a masked index increment) that starts at 16 slots and
// doubles when a push finds it full below the limit. So a queue's memory
// follows its high-water mark, not its limit: storage is at most twice the
// high-water mark (three times while a doubling moves the items), and once
// a queue has reached its high-water mark it never touches the allocator
// again.
//
// In the single-threaded simulator the SPSC contract is trivially met (one
// producer call site, one consumer call site, never interleaved); the
// monotonic head/tail counter layout is the same one a lock-free multi-core
// build would use, so the data path is shaped for that future without
// carrying atomics the simulator doesn't need.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dnsguard::common {

template <typename T>
class SpscRing {
 public:
  /// Holds at most `limit` items.
  explicit SpscRing(std::size_t limit)
      : limit_(limit), buf_(kInitialSlots), mask_(kInitialSlots - 1) {}

  SpscRing(SpscRing&&) = default;
  SpscRing& operator=(SpscRing&&) = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(head_ - tail_);
  }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] bool full() const { return size() >= limit_; }

  /// Producer side: false (value untouched) when the ring is full.
  [[nodiscard]] bool try_push(T&& v) {
    if (full()) return false;
    if (size() == buf_.size()) {
      // Unwrap the items to the front of the storage, then double it.
      std::rotate(buf_.begin(),
                  buf_.begin() + static_cast<std::ptrdiff_t>(tail_ & mask_),
                  buf_.end());
      tail_ = 0;
      head_ = buf_.size();
      // DNSGUARD_LINT_ALLOW(alloc): storage doubles only when the queue
      // passes its high-water mark, so a queue in steady state never grows
      buf_.resize(2 * buf_.size());
      mask_ = buf_.size() - 1;
    }
    buf_[static_cast<std::size_t>(head_) & mask_] = std::move(v);
    ++head_;
    return true;
  }

  /// Consumer side: false (out untouched) when the ring is empty.
  [[nodiscard]] bool try_pop(T& out) {
    if (empty()) return false;
    out = std::move(buf_[static_cast<std::size_t>(tail_) & mask_]);
    ++tail_;
    return true;
  }

 private:
  static constexpr std::size_t kInitialSlots = 16;

  std::size_t limit_;
  std::vector<T> buf_;
  std::size_t mask_;
  std::uint64_t head_ = 0;  // producer position (monotonic)
  std::uint64_t tail_ = 0;  // consumer position (monotonic)
};

}  // namespace dnsguard::common
