// Test-only reference tracker: the linear-scan Space-Saving implementation
// RL1 used before its min-heap, kept as a differential oracle for
// ratelimit::SpaceSaving. Every unseen key at capacity scans all slots for
// the minimum count and takes the lowest slot among ties; the heap must
// pick the same victim, so the two agree on every record() return.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dnsguard::ratelimit::oracle {

template <typename Key, typename Hash = std::hash<Key>>
class ReferenceSpaceSaving {
 public:
  explicit ReferenceSpaceSaving(std::size_t capacity) : capacity_(capacity) {}

  std::uint64_t record(const Key& key) {
    auto it = index_.find(key);
    if (it != index_.end()) return ++entries_[it->second].count;
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{key, 1, 0});
      index_.emplace(key, entries_.size() - 1);
      return 1;
    }
    std::size_t victim = min_index();
    Entry& e = entries_[victim];
    index_.erase(e.key);
    std::uint64_t inherited = e.count;
    e.key = key;
    e.error = inherited;
    e.count = inherited + 1;
    index_.emplace(key, victim);
    return e.count;
  }

  [[nodiscard]] std::uint64_t estimate(const Key& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? 0 : entries_[it->second].count;
  }

  [[nodiscard]] std::uint64_t error(const Key& key) const {
    auto it = index_.find(key);
    return it == index_.end() ? 0 : entries_[it->second].error;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return index_.count(key) > 0;
  }

  struct Item {
    Key key;
    std::uint64_t count;
    std::uint64_t error;
  };

  [[nodiscard]] std::vector<Item> top() const {
    std::vector<Item> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      out.push_back(Item{e.key, e.count, e.error});
    }
    std::sort(out.begin(), out.end(),
              [](const Item& a, const Item& b) { return a.count > b.count; });
    return out;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Key key;
    std::uint64_t count;
    std::uint64_t error;
  };

  std::size_t min_index() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].count < entries_[best].count) best = i;
    }
    return best;
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::unordered_map<Key, std::size_t, Hash> index_;
};

}  // namespace dnsguard::ratelimit::oracle
