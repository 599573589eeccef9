// Microbenchmark of common::BoundedTable, the shared bounded per-source
// state container (DESIGN.md §10).
//
// Two phases:
//   - "churn": a mixed find/insert/erase/reap workload over a keyspace
//     16× the capacity with TTL + idle timeouts armed, the steady state
//     every adopter (limiter buckets, NAT table, cookie caches) sees.
//   - "flood": distinct keys sprayed at an LRU table, the 1M-spoofed-
//     source state-exhaustion attack shape; the table must stay at its
//     cap and recycle slots without touching the allocator.
//
// The virtual clock advances deterministically, so the behavioural
// outcomes (hits, evictions, expiries, final size) in the "metrics"
// section are bit-stable and gated by tools/check_bench.py; wall-clock
// ns/op goes to the informational "counters" section (machine-dependent,
// not gated).
#include <cstdint>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/bounded_table.h"

namespace dnsguard {
namespace {

std::uint64_t g_rng_state = 0x9e3779b97f4a7c15ULL;

std::uint64_t rng() {
  std::uint64_t x = g_rng_state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  g_rng_state = x;
  return x;
}

}  // namespace
}  // namespace dnsguard

int main() {
  using namespace dnsguard;
  // No "profile" section here by design: this is a single-stage
  // microbenchmark with no simulator pipeline to attribute — its
  // wall-ns/op metrics *are* the cost model for the one stage it times.
  bench::JsonResultWriter json("bounded_table");

  const std::uint64_t churn_ops =
      bench::quick<std::uint64_t>(5'000'000, 200'000);
  const std::uint64_t flood_keys =
      bench::quick<std::uint64_t>(1'000'000, 100'000);

  // --- churn phase --------------------------------------------------------
  common::BoundedTable<std::uint32_t, std::uint64_t> table(
      {.capacity = 4096,
       .ttl = milliseconds(50),
       .idle_timeout = milliseconds(20)});
  g_rng_state = 0x9e3779b97f4a7c15ULL;
  SimTime now{};
  auto t0 = bench::wall_now();
  for (std::uint64_t i = 0; i < churn_ops; ++i) {
    now = now + microseconds(1);
    const std::uint32_t key = static_cast<std::uint32_t>(rng() & 0xffff);
    switch (rng() & 3) {
      case 0:
      case 1: {
        std::uint64_t* v = table.find(key, now);
        if (v != nullptr) *v += 1;
        break;
      }
      case 2:
        table.try_emplace(key, now, i);
        break;
      default:
        if ((rng() & 15) == 0) {
          table.erase(key);
        } else {
          table.reap(now, 4);
        }
        break;
    }
  }
  const double churn_ns = bench::wall_ns_per_op(t0, churn_ops);
  const auto& cs = table.stats();
  json.add("churn_final_size", static_cast<std::uint64_t>(table.size()));
  json.add("churn_hits", cs.hits.value());
  json.add("churn_misses", cs.misses.value());
  json.add("churn_inserts", cs.inserts.value());
  json.add("churn_evicted_capacity", cs.evicted_capacity.value());
  json.add("churn_expired_ttl", cs.expired_ttl.value());
  json.add("churn_expired_idle", cs.expired_idle.value());

  // --- flood phase --------------------------------------------------------
  common::BoundedTable<std::uint32_t, std::uint64_t> flood(
      {.capacity = 4096});
  std::uint64_t flood_evict_cb = 0;
  flood.set_evict_callback(
      [&flood_evict_cb](const std::uint32_t&, std::uint64_t&,
                        common::EvictReason) { ++flood_evict_cb; });
  t0 = bench::wall_now();
  for (std::uint64_t i = 0; i < flood_keys; ++i) {
    now = now + nanoseconds(100);
    flood.try_emplace(static_cast<std::uint32_t>(i), now, i);
  }
  const double flood_ns = bench::wall_ns_per_op(t0, flood_keys);
  json.add("flood_final_size", static_cast<std::uint64_t>(flood.size()));
  json.add("flood_evicted_capacity", flood.stats().evicted_capacity.value());

  std::printf("bounded_table: churn %llu ops (%.1f ns/op), flood %llu keys "
              "(%.1f ns/op), flood table size %zu / cap %zu\n",
              static_cast<unsigned long long>(churn_ops), churn_ns,
              static_cast<unsigned long long>(flood_keys), flood_ns,
              flood.size(), flood.capacity());
  if (flood.size() > flood.capacity() ||
      flood_evict_cb != flood.stats().evicted_capacity.value()) {
    std::printf("FAIL: flood table exceeded its cap or eviction callback "
                "count diverged\n");
    return 1;
  }

  // Wall-clock numbers are machine-dependent: informational only.
  obs::Gauge churn_cost;
  obs::Gauge flood_cost;
  churn_cost.set(static_cast<std::int64_t>(churn_ns));
  flood_cost.set(static_cast<std::int64_t>(flood_ns));
  obs::MetricsRegistry wall;
  wall.attach_gauge("wall.churn_op_cost_ns", churn_cost);
  wall.attach_gauge("wall.flood_op_cost_ns", flood_cost);
  json.add_counters(wall);
  json.write();
  return 0;
}
