// Scheduler microbenchmark: the pool-backed 4-ary InplaceFunction heap
// (sim/event_queue.h) against the seed implementation (binary
// std::priority_queue over shared_ptr<std::function>, two heap allocations
// per event). The workload mimics the simulator's steady state: a standing
// window of pending events, each pop scheduling a successor at a pseudo-
// random future instant, with packet-sized (~72 byte) captures like the
// deliver_later hot path.
//
// Acceptance target for PR 1: new_events_per_sec >= 2x old_events_per_sec.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "sim/event_queue.h"

namespace dnsguard::bench {
namespace {

/// Byte-for-byte copy of the seed EventQueue (PR 0) to measure against.
class LegacyEventQueue {
 public:
  using Fn = std::function<void()>;

  void schedule(SimTime at, Fn fn) {
    heap_.push(Entry{at, next_seq_++, std::make_shared<Fn>(std::move(fn))});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  Fn pop(SimTime& at_out) {
    Entry e = heap_.top();
    heap_.pop();
    at_out = e.at;
    return std::move(*e.fn);
  }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::shared_ptr<Fn> fn;
    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Stand-in for the captured [Node*, net::Packet] of a delivery event.
struct FakePacketCapture {
  void* node;
  std::uint8_t header[28];
  std::uint64_t payload_words[4];
};

// Standing pending-event count. The quick-mode fig5-7 benches (closed-loop
// LRS drivers, guard, spoofed floods, thousands of TCP connections) end
// with 923-23,029 events pending (sim.queue_depth, DESIGN.md section 7),
// so 1024 sits at the low end of the realistic range.
constexpr int kWindow = 1024;
// Pops measured per run; quick mode (CI smoke) runs 10x fewer.
inline std::uint64_t event_count() {
  return quick<std::uint64_t>(4'000'000, 400'000);
}

template <typename Queue>
double run_events_per_sec(Queue& q) {
  const std::uint64_t kEvents = event_count();
  Rng rng(0x5eedULL);
  std::uint64_t sink = 0;
  SimTime now{};
  // Pre-fill the standing window. One RNG draw per event doubles as the
  // payload word and the delay, keeping the harness overhead (identical on
  // both sides) out of the measured difference as much as possible.
  for (int i = 0; i < kWindow; ++i) {
    const std::uint64_t r = rng.next();
    FakePacketCapture cap{&sink, {}, {r, 0, 0, 0}};
    q.schedule(SimTime{static_cast<std::int64_t>(r % 1000)},
               [cap, &sink] { sink += cap.payload_words[0]; });
  }
  auto start = wall_now();
  for (std::uint64_t n = 0; n < kEvents; ++n) {
    // The simulator drains via run_next (in-place invocation) where the
    // queue provides it; the legacy queue only has pop.
    if constexpr (requires { q.run_next(now); }) {
      q.run_next(now);
    } else {
      auto fn = q.pop(now);
      fn();
    }
    const std::uint64_t r = rng.next();
    FakePacketCapture cap{&sink, {}, {r, 0, 0, 0}};
    q.schedule(now + SimDuration{static_cast<std::int64_t>(r % 1000)},
               [cap, &sink] { sink += cap.payload_words[0]; });
  }
  auto elapsed = wall_seconds_since(start);
  SimTime drain;
  while (!q.empty()) q.pop(drain);
  if (sink == 0xdead) std::printf("impossible\n");  // keep `sink` observed
  return static_cast<double>(kEvents) / elapsed;
}

}  // namespace
}  // namespace dnsguard::bench

int main() {
  using namespace dnsguard;
  using namespace dnsguard::bench;

  std::printf("Event-queue microbench: %llu schedule+pop cycles, window %d, "
              "packet-sized captures\n\n",
              static_cast<unsigned long long>(event_count()), kWindow);

  // Interleave runs so CPU frequency ramp and scheduler noise hit both
  // equally; keep the best of five per implementation (best-of, not mean,
  // because interference only ever subtracts throughput).
  double old_best = 0, new_best = 0;
  const int rounds = quick(5, 2);
  for (int round = 0; round < rounds; ++round) {
    {
      LegacyEventQueue legacy;
      old_best = std::max(old_best, run_events_per_sec(legacy));
    }
    {
      sim::EventQueue queue;
      new_best = std::max(new_best, run_events_per_sec(queue));
    }
  }

  double speedup = new_best / old_best;
  std::printf("legacy (shared_ptr<std::function> binary heap): %10.0f ev/s\n",
              old_best);
  std::printf("new    (InplaceFunction 4-ary pool heap):       %10.0f ev/s\n",
              new_best);
  std::printf("speedup: %.2fx %s\n", speedup,
              speedup >= 2.0 ? "(meets >=2x target)" : "(BELOW 2x target)");

  // No "profile" section here by design: this microbenchmark times the
  // event queue outside any simulator pipeline, so there are no stages to
  // attribute — events_per_sec is already the single-stage cost model.
  JsonResultWriter json("event_queue");
  json.add("old_events_per_sec", old_best);
  json.add("new_events_per_sec", new_best);
  json.add("speedup", speedup);
  json.write();
  // Quick mode (CI smoke on shared runners) reports but does not enforce
  // the wall-clock gate; noisy neighbours would make it flaky.
  if (quick_mode()) return 0;
  return speedup >= 2.0 ? 0 : 1;
}
