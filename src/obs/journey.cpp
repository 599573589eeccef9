#include "obs/journey.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace dnsguard::obs {

void JourneyTracker::enable(std::size_t active_capacity,
                            std::size_t completed_capacity) {
  if (active_capacity < 4) active_capacity = 4;
  if (completed_capacity < 4) completed_capacity = 4;
  active_capacity = std::bit_ceil(active_capacity);
  completed_capacity = std::bit_ceil(completed_capacity);

  pool_.assign(active_capacity, Journey{});
  free_.clear();
  free_.reserve(active_capacity);
  for (std::size_t i = active_capacity; i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  // 2x slots keeps the open-addressed index sparse enough that the short
  // probe window almost never collides at full pool occupancy.
  index_.assign(active_capacity * 2, IndexSlot{});
  index_mask_ = index_.size() - 1;
  completed_.assign(completed_capacity, Journey{});
  completed_mask_ = completed_capacity - 1;
  completed_head_ = 0;
  active_count_ = 0;
  evict_cursor_ = 0;
  enabled_ = true;
}

void JourneyTracker::clear() {
  if (index_.empty()) return;
  std::fill(index_.begin(), index_.end(), IndexSlot{});
  free_.clear();
  for (std::size_t i = pool_.size(); i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  completed_head_ = 0;
  active_count_ = 0;
}

std::uint32_t JourneyTracker::lookup(std::uint64_t packed) const {
  if (index_.empty()) return kNoJourney;
  std::uint64_t h = packed;
  for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
    const IndexSlot& s = index_[(h + probe) & index_mask_];
    if (s.key == packed) return s.journey;
  }
  return kNoJourney;
}

void JourneyTracker::index_insert(std::uint64_t packed,
                                  std::uint32_t journey) {
  std::uint64_t h = packed;
  for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
    IndexSlot& s = index_[(h + probe) & index_mask_];
    if (s.key == 0 || s.key == packed) {
      s.key = packed;
      s.journey = journey;
      return;
    }
  }
  // Probe window exhausted: claim the first slot anyway. The displaced
  // journey becomes unreachable by that key — acceptable for a bounded
  // best-effort tracker (its journey still retires via eviction).
  IndexSlot& s = index_[h & index_mask_];
  s.key = packed;
  s.journey = journey;
}

void JourneyTracker::index_remove_journey(const Journey& j) {
  for (std::size_t k = 0; k < j.n_keys; ++k) {
    const std::uint64_t packed = j.keys[k];
    std::uint64_t h = packed;
    for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
      IndexSlot& s = index_[(h + probe) & index_mask_];
      if (s.key == packed) {
        s.key = 0;
        s.journey = 0;
        break;
      }
    }
  }
}

void JourneyTracker::retire(std::uint32_t idx, bool completed_ok) {
  Journey& j = pool_[idx];
  index_remove_journey(j);
  if (completed_ok) {
    j.ended = true;
    completed_[completed_head_ & completed_mask_] = j;
    ++completed_head_;
    stats_.completed++;
    if (!j.ok) stats_.failed++;
  } else {
    stats_.evicted_open++;
  }
  j = Journey{};
  free_.push_back(idx);
  --active_count_;
}

std::uint32_t JourneyTracker::allocate(JourneyKey key, SimTime at) {
  if (free_.empty()) {
    // Pool full: evict the oldest open journey (round-robin cursor is a
    // cheap stand-in for true LRU; journeys are short-lived).
    std::uint32_t victim = evict_cursor_++ & (pool_.size() - 1);
    retire(victim, /*completed_ok=*/false);
  }
  std::uint32_t idx = free_.back();
  free_.pop_back();
  Journey& j = pool_[idx];
  j.first_key = key;
  j.begin = at;
  j.last = at;
  j.seq = next_seq_++;
  j.n_events = 0;
  j.n_keys = 1;
  j.ok = true;
  j.ended = false;
  j.keys[0] = key.packed();
  index_insert(j.keys[0], idx);
  ++active_count_;
  stats_.started++;
  return idx;
}

void JourneyTracker::append_event(Journey& j, std::string_view stage,
                                  SimTime at) {
  if (j.n_events >= kMaxEvents) {
    stats_.marks_dropped++;
    // The event itself is lost, but `last` keeps advancing so duration()
    // still covers the journey's full extent.
    if (at > j.last) j.last = at;
    return;
  }
  j.events[j.n_events].at = at;
  j.events[j.n_events].stage = stage;
  ++j.n_events;
  if (at > j.last) j.last = at;
}

void JourneyTracker::mark(JourneyKey key, std::string_view stage,
                          SimTime at, bool may_open) {
  if (!enabled_) return;
  std::uint32_t idx = lookup(key.packed());
  if (idx == kNoJourney) {
    if (!may_open) return;
    idx = allocate(key, at);
  }
  append_event(pool_[idx], stage, at);
}

void JourneyTracker::alias(JourneyKey existing, JourneyKey additional) {
  if (!enabled_) return;
  const std::uint64_t add = additional.packed();
  std::uint32_t idx = lookup(existing.packed());
  if (idx == kNoJourney) return;
  if (lookup(add) == idx) return;  // already aliased
  Journey& j = pool_[idx];
  if (j.n_keys >= kMaxKeys) return;
  j.keys[j.n_keys++] = add;
  index_insert(add, idx);
}

void JourneyTracker::end(JourneyKey key, std::string_view stage, SimTime at,
                         bool ok, bool may_open) {
  if (!enabled_) return;
  std::uint32_t idx = lookup(key.packed());
  if (idx == kNoJourney) {
    if (!may_open) return;
    idx = allocate(key, at);
  }
  Journey& j = pool_[idx];
  append_event(j, stage, at);
  j.ok = ok;
  retire(idx, /*completed_ok=*/true);
}

std::vector<JourneyTracker::Journey> JourneyTracker::completed() const {
  std::vector<Journey> out;
  const std::size_t n = completed_count();
  out.reserve(n);
  const std::uint64_t start =
      completed_head_ < completed_.size() ? 0
                                          : completed_head_ - completed_.size();
  for (std::uint64_t i = start; i < completed_head_; ++i) {
    out.push_back(completed_[i & completed_mask_]);
  }
  return out;
}

const JourneyTracker::Journey* JourneyTracker::find(JourneyKey key) const {
  std::uint32_t idx = lookup(key.packed());
  return idx == kNoJourney ? nullptr : &pool_[idx];
}

namespace {

void append_trace_slice(std::string& out, bool& first, std::uint64_t tid,
                        std::string_view name, SimTime ts, SimDuration dur,
                        std::uint32_t src, std::uint16_t id, bool ok) {
  char buf[256];
  // Chrome trace timestamps/durations are microseconds (doubles allowed).
  std::snprintf(
      buf, sizeof(buf),
      "%s\n    {\"name\": \"%.*s\", \"ph\": \"X\", \"pid\": 1, "
      "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
      "\"args\": {\"src\": \"%u.%u.%u.%u\", \"dns_id\": %u, \"ok\": %s}}",
      first ? "" : ",", static_cast<int>(name.size()), name.data(),
      static_cast<unsigned long long>(tid),
      static_cast<double>(ts.ns) / 1e3, static_cast<double>(dur.ns) / 1e3,
      (src >> 24) & 0xff, (src >> 16) & 0xff, (src >> 8) & 0xff, src & 0xff,
      id, ok ? "true" : "false");
  out += buf;
  first = false;
}

void append_journey(std::string& out, bool& first,
                    const JourneyTracker::Journey& j) {
  if (j.n_events == 0) return;
  const std::uint64_t tid = j.seq;
  // Enclosing slice: the whole journey.
  append_trace_slice(out, first, tid, "journey", j.begin, j.last - j.begin,
                     j.first_key.src, j.first_key.id, j.ok);
  // One slice per leg: the interval from each mark to the next. The final
  // mark gets a zero-duration slice (renders as an instant in Perfetto).
  for (std::size_t i = 0; i < j.n_events; ++i) {
    const SimTime at = j.events[i].at;
    const SimTime next =
        i + 1 < j.n_events ? j.events[i + 1].at : j.events[i].at;
    append_trace_slice(out, first, tid, j.events[i].stage, at, next - at,
                       j.first_key.src, j.first_key.id, j.ok);
  }
}

}  // namespace

std::string JourneyTracker::to_chrome_json(bool include_open) const {
  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  for (const Journey& j : completed()) append_journey(out, first, j);
  if (include_open) {
    for (const Journey& j : pool_) {
      if (j.n_keys > 0) append_journey(out, first, j);
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

bool JourneyTracker::write_chrome_json(const std::string& path,
                                       bool include_open) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_chrome_json(include_open);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace dnsguard::obs
