// Space-Saving top-k heavy-hitter tracker (Metwally et al.).
//
// Rate-Limiter1 "tracks the top requesters and limits the rate of cookie
// response to them" (§III.F). Tracking every source address seen during a
// spoofed flood would let the attacker exhaust guard memory, so the guard
// keeps only a bounded table of candidate heavy hitters with the classic
// Space-Saving guarantee: any key with true count > N/capacity is present,
// and each reported count overestimates by at most the minimum counter.
//
// A spoofer sends every packet from a fresh source, so each one evicts the
// minimum-count entry. A min-heap of slots ordered by (count, slot) finds
// that entry in O(log k) and an open-addressing common::BoundedTable maps
// keys to slots without allocating, so a record costs O(log k) whatever
// the source. The heap's root is the lowest slot among the minimum counts,
// the entry a linear scan of the slots would pick.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bounded_table.h"

namespace dnsguard::ratelimit {

template <typename Key, typename Hash = std::hash<Key>>
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity)
      : capacity_(capacity), index_({.capacity = capacity}) {
    entries_.reserve(capacity);
    heap_.reserve(capacity);
  }

  /// Records one occurrence of `key`; returns its (over)estimated count.
  std::uint64_t record(const Key& key) {
    if (const std::uint32_t* slot = index_.occupant(key)) {
      Entry& e = entries_[*slot];
      ++e.count;
      sift_down(e.heap_pos);
      return e.count;
    }
    if (entries_.size() < capacity_) {
      const auto slot = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(Entry{key, 1, 0, slot});
      heap_.push_back(slot);
      sift_up(slot);
      index_.try_emplace(key, SimTime{}, slot);
      return 1;
    }
    // Evict the minimum-count entry and inherit its count as error bound.
    const std::uint32_t victim = heap_[0];
    Entry& e = entries_[victim];
    index_.erase(e.key);
    const std::uint64_t inherited = e.count;
    e.key = key;
    e.error = inherited;
    e.count = inherited + 1;
    sift_down(0);
    index_.try_emplace(key, SimTime{}, victim);
    return inherited + 1;
  }

  /// Estimated count for `key` (0 if not tracked).
  [[nodiscard]] std::uint64_t estimate(const Key& key) const {
    const std::uint32_t* slot = index_.occupant(key);
    return slot == nullptr ? 0 : entries_[*slot].count;
  }

  /// Upper bound on the estimation error for `key` (0 if exact).
  [[nodiscard]] std::uint64_t error(const Key& key) const {
    const std::uint32_t* slot = index_.occupant(key);
    return slot == nullptr ? 0 : entries_[*slot].error;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return index_.contains(key);
  }

  struct Item {
    Key key;
    std::uint64_t count;
    std::uint64_t error;
  };

  /// The tracked items, highest count first.
  [[nodiscard]] std::vector<Item> top() const {
    std::vector<Item> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(Item{e.key, e.count, e.error});
    std::sort(out.begin(), out.end(),
              [](const Item& a, const Item& b) { return a.count > b.count; });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void clear() {
    entries_.clear();
    heap_.clear();
    index_.clear();
  }

 private:
  struct Entry {
    Key key;
    std::uint64_t count;
    std::uint64_t error;
    std::uint32_t heap_pos;  // where heap_ holds this slot
  };

  /// Heap order: lower count first, then lower slot.
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const std::uint64_t ca = entries_[a].count;
    const std::uint64_t cb = entries_[b].count;
    return ca < cb || (ca == cb && a < b);
  }

  void place(std::size_t i, std::uint32_t slot) {
    heap_[i] = slot;
    entries_[slot].heap_pos = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const std::uint32_t slot = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(slot, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, slot);
  }

  // Counts only grow, so a changed entry only ever moves down.
  void sift_down(std::size_t i) {
    const std::uint32_t slot = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], slot)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, slot);
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;        // by slot; at most capacity_
  std::vector<std::uint32_t> heap_;   // slots, min-heap by before()
  common::BoundedTable<Key, std::uint32_t, Hash> index_;  // key -> slot
};

}  // namespace dnsguard::ratelimit
