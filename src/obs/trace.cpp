#include "obs/trace.h"

#include <bit>
#include <cstdio>

namespace dnsguard::obs {

namespace {

std::string ipv4_string(std::uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

}  // namespace

std::string_view trace_event_name(TraceEvent e) {
  switch (e) {
    case TraceEvent::kRx: return "rx";
    case TraceEvent::kClassify: return "classify";
    case TraceEvent::kRewrite: return "rewrite";
    case TraceEvent::kDrop: return "drop";
    case TraceEvent::kTx: return "tx";
    case TraceEvent::kQueueDrop: return "queue_drop";
  }
  return "?";
}

std::string TraceEntry::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%+12.3fms %-10s %s -> %s info=%u",
                static_cast<double>(at.ns) / 1e6,
                std::string(trace_event_name(event)).c_str(),
                ipv4_string(src).c_str(), ipv4_string(dst).c_str(), info);
  std::string out = buf;
  if (reason != DropReason::kNone) {
    out += " reason=";
    out += drop_reason_name(reason);
  }
  return out;
}

TraceRing::TraceRing(std::size_t capacity) {
  if (capacity < 2) capacity = 2;
  capacity = std::bit_ceil(capacity);
  ring_.resize(capacity);
  mask_ = capacity - 1;
}

std::vector<TraceEntry> TraceRing::entries() const {
  std::vector<TraceEntry> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t start = head_ < ring_.size() ? 0 : head_ - ring_.size();
  for (std::uint64_t i = start; i < head_; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

std::string TraceRing::dump(std::string_view label) const {
  std::string out = "=== " + std::string(label) + " ring (" +
                    std::to_string(size()) + "/" +
                    std::to_string(capacity()) + " entries, " +
                    std::to_string(recorded()) + " recorded) ===\n";
  for (const TraceEntry& e : entries()) {
    out += "  " + e.to_string() + "\n";
  }
  return out;
}

}  // namespace dnsguard::obs
