// BoundedTable unit suite: LRU order, TTL/idle reaping, capacity
// enforcement, eviction accounting, pointer stability, index integrity
// under churn (the properties every per-source table in the system now
// depends on).
#include "common/bounded_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "guard/remote_guard.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace dnsguard::common {
namespace {

using Table = BoundedTable<std::uint32_t, std::string>;

SimTime at(std::int64_t ms) { return SimTime{} + milliseconds(ms); }

/// xorshift64: a fixed stream of pseudo-random words.
struct XorShift {
  std::uint64_t s = 0x123456789abcdefULL;
  std::uint64_t operator()() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// The index size a table of `capacity` has when full: the smallest power
/// of two >= 2 x capacity, and at least 8.
std::size_t full_buckets(std::size_t capacity) {
  std::size_t b = 8;
  while (b < 2 * capacity) b <<= 1;
  return b;
}

TEST(BoundedTable, InsertFindErase) {
  Table t({.capacity = 8});
  auto r = t.try_emplace(1, at(0), "one");
  ASSERT_NE(r.value, nullptr);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(*r.value, "one");

  auto again = t.try_emplace(1, at(1), "uno");
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(*again.value, "one") << "existing entry must not be replaced";

  EXPECT_EQ(*t.find(1, at(2)), "one");
  EXPECT_EQ(t.find(2, at(2)), nullptr);
  EXPECT_EQ(t.size(), 1u);

  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.find(1, at(3)), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(BoundedTable, CapacityEvictsLeastRecentlyUsed) {
  Table t({.capacity = 3});
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  t.try_emplace(3, at(2), "c");
  ASSERT_NE(t.lru_key(), nullptr);
  EXPECT_EQ(*t.lru_key(), 1u);

  // Touching 1 makes 2 the LRU victim.
  EXPECT_NE(t.find(1, at(3)), nullptr);
  t.try_emplace(4, at(4), "d");
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.find(2, at(5)), nullptr) << "LRU entry should have been evicted";
  EXPECT_NE(t.find(1, at(5)), nullptr);
  EXPECT_NE(t.find(3, at(5)), nullptr);
  EXPECT_NE(t.find(4, at(5)), nullptr);
  EXPECT_EQ(t.stats().evicted_capacity.value(), 1u);
}

TEST(BoundedTable, RefusalModeRejectsAtCap) {
  Table t({.capacity = 2, .evict_lru_when_full = false});
  EXPECT_TRUE(t.try_emplace(1, at(0), "a").inserted);
  EXPECT_TRUE(t.try_emplace(2, at(0), "b").inserted);
  auto r = t.try_emplace(3, at(0), "c");
  EXPECT_EQ(r.value, nullptr);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.stats().insert_refused.value(), 1u);
  // Existing keys still resolve at cap.
  EXPECT_FALSE(t.try_emplace(1, at(1), "x").inserted);
}

TEST(BoundedTable, TtlExpiryOnContactAndReap) {
  Table t({.capacity = 8, .ttl = milliseconds(10)});
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(5), "b");

  EXPECT_NE(t.find(1, at(9)), nullptr);
  EXPECT_EQ(t.find(1, at(10)), nullptr) << "TTL deadline is inclusive";
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);

  // Entry 2 expires at 15ms; a full reap at 20ms clears it.
  EXPECT_EQ(t.reap(at(20)), 1u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 2u);
}

TEST(BoundedTable, IdleTimeoutRunsFromLastTouch) {
  Table t({.capacity = 8, .idle_timeout = milliseconds(10)});
  t.try_emplace(1, at(0), "a");
  EXPECT_NE(t.find(1, at(8)), nullptr);   // touch resets the idle clock
  EXPECT_NE(t.find(1, at(17)), nullptr);  // 9ms idle: still alive
  EXPECT_EQ(t.find(1, at(27)), nullptr);  // 10ms idle: expired
  EXPECT_EQ(t.stats().expired_idle.value(), 1u);
}

TEST(BoundedTable, PerEntryExpiryOverride) {
  Table t({.capacity = 8});  // no table-wide TTL
  t.try_emplace(1, at(0), "a");
  EXPECT_TRUE(t.set_expiry(1, at(50)));
  EXPECT_FALSE(t.set_expiry(9, at(50)));
  EXPECT_NE(t.find(1, at(49)), nullptr);
  EXPECT_EQ(t.find(1, at(50)), nullptr);
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);
}

TEST(BoundedTable, PeekDoesNotTouchLru) {
  Table t({.capacity = 2});
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  EXPECT_NE(t.peek(1, at(2)), nullptr);  // no LRU refresh
  t.try_emplace(3, at(3), "c");
  EXPECT_EQ(t.peek(1, at(4)), nullptr) << "peek must not have protected 1";
  EXPECT_NE(t.peek(2, at(4)), nullptr);
}

TEST(BoundedTable, EvictionCallbackReportsReasonNotOnErase) {
  struct Evt {
    std::uint32_t key;
    std::string value;
    EvictReason reason;
  };
  std::vector<Evt> events;
  Table t({.capacity = 2, .ttl = milliseconds(10)});
  t.set_evict_callback([&](const std::uint32_t& k, std::string& v,
                           EvictReason r) { events.push_back({k, v, r}); });

  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  t.try_emplace(3, at(2), "c");  // capacity-evicts 1
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].key, 1u);
  EXPECT_EQ(events[0].value, "a");
  EXPECT_EQ(events[0].reason, EvictReason::kCapacity);

  t.reap(at(20));  // TTL-evicts 2 and 3
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].reason, EvictReason::kTtl);
  EXPECT_EQ(events[2].reason, EvictReason::kTtl);

  t.try_emplace(4, at(21), "d");
  t.erase(4);  // voluntary: no callback
  t.try_emplace(5, at(22), "e");
  t.clear();   // voluntary: no callback
  EXPECT_EQ(events.size(), 3u);
}

TEST(BoundedTable, ValuePointersStableAcrossChurn) {
  Table t({.capacity = 64});
  auto* first = t.try_emplace(0, at(0), "zero").value;
  std::string* pinned = first;
  for (std::uint32_t k = 1; k < 64; ++k) t.try_emplace(k, at(k), "v");
  for (std::uint32_t k = 1; k < 64; k += 2) t.erase(k);
  for (std::uint32_t k = 100; k < 130; ++k) t.try_emplace(k, at(k), "w");
  EXPECT_EQ(pinned, t.find(0, at(200))) << "slot addresses must be stable";
  EXPECT_EQ(*pinned, "zero");
}

TEST(BoundedTable, IndexIntegrityUnderHeavyChurn) {
  // Dense small keys + a power-of-two-mask index is the worst case for
  // probe clustering and backward-shift deletion; mirror against a
  // std::unordered_map oracle.
  BoundedTable<std::uint16_t, std::uint32_t> t({.capacity = 512});
  std::unordered_map<std::uint16_t, std::uint32_t> oracle;
  XorShift next;
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<std::uint16_t>(next() % 700);
    if (next() % 3 == 0) {
      EXPECT_EQ(t.erase(key), oracle.erase(key) > 0);
    } else if (oracle.size() < 512 || oracle.count(key) != 0) {
      auto r = t.try_emplace(key, at(i), static_cast<std::uint32_t>(i));
      auto [it, inserted] = oracle.try_emplace(key,
                                               static_cast<std::uint32_t>(i));
      ASSERT_NE(r.value, nullptr);
      EXPECT_EQ(r.inserted, inserted);
      EXPECT_EQ(*r.value, it->second);
    }
    ASSERT_EQ(t.size(), oracle.size());
  }
  for (const auto& [k, v] : oracle) {
    auto* found = t.find(k, at(99999));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

TEST(BoundedTable, IncrementalReapCoversTableAcrossCalls) {
  Table t({.capacity = 128, .ttl = milliseconds(1)});
  for (std::uint32_t k = 0; k < 100; ++k) t.try_emplace(k, at(0), "x");
  std::size_t total = 0;
  for (int i = 0; i < 10; ++i) total += t.reap(at(100), 10);
  EXPECT_EQ(total, 100u);
  EXPECT_TRUE(t.empty());
}

TEST(BoundedTable, ForEachVisitsLiveEntriesOnly) {
  Table t({.capacity = 16});
  for (std::uint32_t k = 0; k < 10; ++k) {
    t.try_emplace(k, at(0), k % 2 ? "odd" : "even");
  }
  for (std::uint32_t k = 1; k < 10; k += 2) t.erase(k);
  std::unordered_set<std::uint32_t> seen;
  t.for_each([&](const std::uint32_t& k, std::string& v) {
    EXPECT_EQ(v, "even");
    seen.insert(k);
  });
  EXPECT_EQ(seen.size(), 5u);
}

TEST(BoundedTable, OccupantLeavesLruStatsAndExpiryAlone) {
  Table t({.capacity = 2, .ttl = milliseconds(5)});
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(0), "b");
  const auto hits = t.stats().hits.value();
  const auto misses = t.stats().misses.value();
  std::string* v = t.occupant(1);
  ASSERT_NE(v, nullptr);
  *v = "a2";
  EXPECT_EQ(t.occupant(3), nullptr);
  EXPECT_EQ(*t.lru_key(), 1u) << "occupant() must not refresh the LRU";
  EXPECT_EQ(t.stats().hits.value(), hits);
  EXPECT_EQ(t.stats().misses.value(), misses);
  // An expired entry is still an occupant, and looking does not evict it.
  ASSERT_NE(t.occupant(1), nullptr);
  EXPECT_EQ(*std::as_const(t).occupant(1), "a2");
  EXPECT_EQ(t.peek(1, at(10)), nullptr);
  EXPECT_NE(t.occupant(1), nullptr);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 0u);
}

TEST(BoundedTable, MetricsBindExportsOccupancyAndEvictions) {
  obs::MetricsRegistry registry;
  Table t({.capacity = 2});
  t.bind_metrics(registry, "test.table");
  t.try_emplace(1, at(0), "a");
  t.try_emplace(2, at(1), "b");
  t.try_emplace(3, at(2), "c");
  const auto* size = registry.find_gauge("test.table.size");
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(size->value(), 2);
  EXPECT_EQ(size->max(), 2);
  const auto* evicted = registry.find_counter("test.table.evicted_capacity");
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->value(), 1u);
  t.erase(2);
  EXPECT_EQ(size->value(), 1);
}

TEST(BoundedTable, ContainsSeesExpiredOccupancyPeekDoesNot) {
  Table t({.capacity = 4, .ttl = milliseconds(5)});
  t.try_emplace(1, at(0), "a");
  EXPECT_TRUE(t.contains(1));
  EXPECT_EQ(t.peek(1, at(10)), nullptr);
  EXPECT_TRUE(t.contains(1)) << "contains() reports slot occupancy";
  t.reap(at(10));
  EXPECT_FALSE(t.contains(1));
}

TEST(BoundedTable, ExpiredEntryIsReplacedNotReturned) {
  Table t({.capacity = 4, .ttl = milliseconds(5)});
  t.try_emplace(1, at(0), "stale");
  auto r = t.try_emplace(1, at(10), "fresh");
  ASSERT_NE(r.value, nullptr);
  EXPECT_TRUE(r.inserted) << "expired entry must be evicted, then re-created";
  EXPECT_EQ(*r.value, "fresh");
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BoundedTable, TtlBoundaryExactDeadlineConsistentAcrossPaths) {
  // An entry whose deadline equals `now` is expired on every path at
  // once — find(), peek(), reap() and the gauges must agree, or the same
  // instant yields a hit on one path and an expiry on another.
  Table t({.capacity = 4, .ttl = milliseconds(100)});
  t.try_emplace(1, at(0), "a");
  EXPECT_NE(t.peek(1, at(99)), nullptr);
  EXPECT_EQ(t.peek(1, at(100)), nullptr) << "now == expires_at is expired";
  EXPECT_EQ(t.find(1, at(100)), nullptr);
  EXPECT_EQ(t.stats().expired_ttl.value(), 1u);

  t.try_emplace(2, at(0), "b");
  EXPECT_EQ(t.reap(at(100)), 1u) << "reap uses the same boundary as find";
  EXPECT_EQ(t.stats().expired_ttl.value(), 2u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(BoundedTable, FullTableOfExpiredEntriesChargesExpiryNotCapacity) {
  // Displacing an already-dead LRU tail at capacity is an expiry that a
  // sweep would have found — charging it to evicted_capacity makes a
  // table full of corpses read as live-entry thrashing.
  Table t({.capacity = 3, .ttl = milliseconds(10)});
  for (std::uint32_t k = 0; k < 3; ++k) t.try_emplace(k, at(0), "old");
  for (std::uint32_t k = 10; k < 13; ++k) {
    auto r = t.try_emplace(k, at(20), "live");
    EXPECT_TRUE(r.inserted);
  }
  EXPECT_EQ(t.stats().evicted_capacity.value(), 0u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 3u);
  // A genuinely live tail displaced at capacity still counts as such.
  EXPECT_TRUE(t.try_emplace(20, at(21), "new").inserted);
  EXPECT_EQ(t.stats().evicted_capacity.value(), 1u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 3u);
}

TEST(BoundedTable, ReapSurvivesCallbackErasingSiblingEntries) {
  // The eviction callback may erase *other* entries of the evicting
  // table (the header's reentrancy rule, which the guard's NAT callback
  // also relies on to relink its neighbours on a connection's port
  // list); the reap cursor must neither crash nor skip live slots over it.
  Table t({.capacity = 8, .ttl = milliseconds(10)});
  for (std::uint32_t k = 1; k <= 8; ++k) t.try_emplace(k, at(0), "v");
  t.set_evict_callback(
      [&t](const std::uint32_t& k, std::string&, EvictReason) {
        if (k == 1) t.erase(2);
      });
  EXPECT_EQ(t.reap(at(20)), 7u) << "key 2 left voluntarily, not reaped";
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().expired_ttl.value(), 7u);
}

TEST(BoundedTable, ReapCoversEntriesInsertedByEvictionCallback) {
  // Insertions from the callback can grow the slot array mid-sweep; the
  // re-read bound must cover them instead of wrapping early (and fresh
  // entries must of course survive the sweep that created them).
  Table t({.capacity = 8, .ttl = milliseconds(10)});
  for (std::uint32_t k = 1; k <= 4; ++k) t.try_emplace(k, at(0), "old");
  bool seeded = false;
  t.set_evict_callback([&](const std::uint32_t&, std::string&, EvictReason) {
    if (!seeded) {
      seeded = true;
      t.try_emplace(100, at(20), "fresh");
      t.try_emplace(101, at(20), "fresh");
    }
  });
  EXPECT_EQ(t.reap(at(20)), 4u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_NE(t.peek(100, at(21)), nullptr);
  EXPECT_NE(t.peek(101, at(21)), nullptr);
}

TEST(BoundedTable, IndexGrowsWithOccupancyUpToItsFullSize) {
  // The index starts at 8 buckets and doubles whenever an insert would
  // take its load above 1/2; at capacity it is the size a table sized up
  // front has, and it never grows past that or shrinks.
  for (std::size_t cap : {1u, 3u, 4u, 5u, 16u, 100u, 1000u, 4096u}) {
    Table t({.capacity = cap});
    EXPECT_EQ(t.bucket_count(), 8u) << cap;
    std::size_t prev = 8;
    for (std::uint32_t k = 0; k < cap; ++k) {
      t.try_emplace(k, at(0), "v");
      std::size_t want = 8;
      while (want < 2 * t.size()) want <<= 1;
      EXPECT_EQ(t.bucket_count(), want) << cap << " at size " << t.size();
      EXPECT_TRUE(t.bucket_count() == prev || t.bucket_count() == 2 * prev);
      prev = t.bucket_count();
    }
    EXPECT_EQ(t.bucket_count(), full_buckets(cap)) << cap;
    // LRU churn at the cap, then emptying: the index stays put.
    for (std::uint32_t k = 0; k < 3 * cap; ++k) {
      t.try_emplace(100000 + k, at(1), "w");
      ASSERT_EQ(t.bucket_count(), full_buckets(cap)) << cap;
    }
    t.clear();
    EXPECT_EQ(t.bucket_count(), full_buckets(cap)) << cap;
  }
}

TEST(BoundedTable, ChurnOracleAcrossEveryDoubling) {
  // Inserts outnumber erases 3:1, so the table climbs from empty to its
  // cap through every doubling of the index (8 -> 8192) with
  // backward-shift erases interleaved; after each doubling every oracle
  // entry must still be found through the rebuilt index.
  constexpr std::size_t kCap = 4096;
  BoundedTable<std::uint32_t, std::uint32_t> t({.capacity = kCap});
  std::unordered_map<std::uint32_t, std::uint32_t> oracle;
  XorShift next;
  std::size_t doublings = 0;
  std::size_t buckets = t.bucket_count();
  for (int i = 0; i < 60000; ++i) {
    const auto key = static_cast<std::uint32_t>(next() % 6000);
    if (next() % 4 == 0) {
      EXPECT_EQ(t.erase(key), oracle.erase(key) > 0);
    } else if (oracle.size() < kCap || oracle.count(key) != 0) {
      auto r = t.try_emplace(key, at(i), static_cast<std::uint32_t>(i));
      auto [it, inserted] =
          oracle.try_emplace(key, static_cast<std::uint32_t>(i));
      ASSERT_NE(r.value, nullptr);
      EXPECT_EQ(r.inserted, inserted);
      EXPECT_EQ(*r.value, it->second);
    }
    ASSERT_EQ(t.size(), oracle.size());
    if (t.bucket_count() != buckets) {
      ASSERT_EQ(t.bucket_count(), 2 * buckets);
      buckets = t.bucket_count();
      ++doublings;
      for (const auto& [k, v] : oracle) {
        const std::uint32_t* found = t.peek(k, at(i));
        ASSERT_NE(found, nullptr) << "key " << k << " after doubling to "
                                  << buckets;
        EXPECT_EQ(*found, v);
      }
    }
  }
  EXPECT_EQ(doublings, 10u);
  EXPECT_EQ(t.bucket_count(), full_buckets(kCap));
  for (const auto& [k, v] : oracle) {
    auto* found = t.find(k, at(99999));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, v);
  }
}

TEST(BoundedTable, ValuePointersSurviveChunksAndDoublings) {
  // 2048 slots span eight 256-slot chunks, and the index doubles nine
  // times on the way; no Value* moves.
  Table t({.capacity = 2048});
  std::vector<std::string*> pinned;
  for (std::uint32_t k = 0; k < 2048; ++k) {
    pinned.push_back(t.try_emplace(k, at(0), std::to_string(k)).value);
  }
  for (std::uint32_t k = 0; k < 2048; k += 3) t.erase(k);
  for (std::uint32_t k = 5000; k < 5300; ++k) t.try_emplace(k, at(1), "w");
  for (std::uint32_t k = 0; k < 2048; ++k) {
    if (k % 3 == 0) continue;
    ASSERT_EQ(t.find(k, at(2)), pinned[k]) << k;
    EXPECT_EQ(*pinned[k], std::to_string(k));
  }
}

TEST(BoundedTable, ReapAndForEachVisitSlotsInSlotOrder) {
  // Slots are handed out in order, and freed ones are reused last-freed
  // first; both walks follow slot order across chunk boundaries.
  Table t({.capacity = 1024, .ttl = milliseconds(10)});
  for (std::uint32_t k = 0; k < 600; ++k) t.try_emplace(k, at(0), "v");
  t.erase(10);
  t.erase(300);
  t.try_emplace(1000, at(0), "v");  // takes 300's slot
  t.try_emplace(1001, at(0), "v");  // takes 10's slot
  std::vector<std::uint32_t> want;
  for (std::uint32_t k = 0; k < 600; ++k) {
    want.push_back(k == 10 ? 1001 : k == 300 ? 1000 : k);
  }
  std::vector<std::uint32_t> walked;
  t.for_each([&](const std::uint32_t& k, std::string&) { walked.push_back(k); });
  EXPECT_EQ(walked, want);

  std::vector<std::uint32_t> reaped;
  t.set_evict_callback([&](const std::uint32_t& k, std::string&,
                           EvictReason) { reaped.push_back(k); });
  std::size_t total = 0;
  for (int i = 0; i < 7; ++i) total += t.reap(at(20), 100);
  EXPECT_EQ(total, 600u);
  EXPECT_EQ(reaped, want);
}

/// A key that records where each default-constructed instance lives:
/// every slot of a new chunk default-constructs its key.
struct PlacedKey {
  static inline std::vector<const PlacedKey*> defaults;
  std::uint32_t v = 0;
  PlacedKey() { defaults.push_back(this); }
  explicit PlacedKey(std::uint32_t x) : v(x) {}
  bool operator==(const PlacedKey& o) const { return v == o.v; }
};
struct PlacedKeyHash {
  std::size_t operator()(const PlacedKey& k) const { return k.v; }
};

TEST(BoundedTable, SmallTableAllocatesOneChunkOfItsCapacity) {
  // Slots come in chunks of 256, or of the capacity rounded up to a power
  // of two when that is smaller: a capacity-16 table builds one 16-slot
  // array at its first insert and no slot after that.
  PlacedKey::defaults.clear();
  BoundedTable<PlacedKey, int, PlacedKeyHash> t({.capacity = 16});
  EXPECT_TRUE(PlacedKey::defaults.empty()) << "no slot before an insert";
  t.try_emplace(PlacedKey(0), at(0), 0);
  ASSERT_EQ(PlacedKey::defaults.size(), 16u);
  const auto stride = reinterpret_cast<std::uintptr_t>(PlacedKey::defaults[1]) -
                      reinterpret_cast<std::uintptr_t>(PlacedKey::defaults[0]);
  for (std::size_t i = 1; i < 16; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(PlacedKey::defaults[i]) -
                  reinterpret_cast<std::uintptr_t>(PlacedKey::defaults[i - 1]),
              stride)
        << "one contiguous array";
  }
  for (std::uint32_t k = 1; k < 16; ++k) t.try_emplace(PlacedKey(k), at(0), 0);
  EXPECT_EQ(PlacedKey::defaults.size(), 16u);

  // A large table's chunks stop at 256 slots.
  PlacedKey::defaults.clear();
  BoundedTable<PlacedKey, int, PlacedKeyHash> big({.capacity = 100000});
  big.try_emplace(PlacedKey(0), at(0), 0);
  EXPECT_EQ(PlacedKey::defaults.size(), 256u);
}

/// An IPv4 source whose equality comparisons are counted: each is one
/// probe of the table's index.
struct CountedIp {
  static inline std::uint64_t compares = 0;
  net::Ipv4Address ip;
  bool operator==(const CountedIp& o) const {
    ++compares;
    return ip == o.ip;
  }
};
struct CountedIpHash {
  std::size_t operator()(const CountedIp& k) const {
    return std::hash<net::Ipv4Address>{}(k.ip);
  }
};

/// Exposes the guard's own source-to-shard map.
class ShardPeek : public guard::RemoteGuardNode {
 public:
  using RemoteGuardNode::RemoteGuardNode;
  using RemoteGuardNode::shard_of;
};

/// Mean key comparisons per find() over `sources`, after filling a table
/// of twice their number to half with them.
double compares_per_find(const std::vector<net::Ipv4Address>& sources) {
  BoundedTable<CountedIp, int, CountedIpHash> t(
      {.capacity = 2 * sources.size()});
  for (auto ip : sources) t.try_emplace(CountedIp{ip}, at(0), 0);
  CountedIp::compares = 0;
  for (auto ip : sources) EXPECT_NE(t.find(CountedIp{ip}, at(0)), nullptr);
  return static_cast<double>(CountedIp::compares) /
         static_cast<double>(sources.size());
}

TEST(BoundedTable, OneShardsSourcesDoNotClusterInTheIndex) {
  // A 4-shard guard sends a source to the shard named by the top bits of
  // ip x 0x9e3779b9, so one shard's sources share the top bits of the
  // table's Fibonacci product as well. The index must take its bucket
  // from bits other than the top ones, or a shard's sources crowd into a
  // corner of its index: top-bit bucketing reads ~47 comparisons per find
  // here, against ~1.5 for random sources.
  sim::Simulator sim;
  guard::RemoteGuardNode::Config gc;
  gc.guard_address = net::Ipv4Address(10, 1, 1, 253);
  gc.ans_address = net::Ipv4Address(10, 1, 1, 254);
  gc.subnet_base = net::Ipv4Address(10, 1, 1, 0);
  gc.num_shards = 4;
  ShardPeek guard(sim, "guard", gc, /*ans=*/nullptr);

  constexpr std::size_t kSources = 1 << 15;
  XorShift next;
  std::vector<net::Ipv4Address> shard0, random;
  while (shard0.size() < kSources || random.size() < kSources) {
    const net::Ipv4Address ip(static_cast<std::uint32_t>(next() >> 32));
    if (random.size() < kSources) random.push_back(ip);
    const auto p = net::Packet::make_udp({ip, 5353}, {gc.guard_address, 53},
                                         Bytes{});
    if (shard0.size() < kSources && guard.shard_of(p) == 0) {
      shard0.push_back(ip);
    }
  }
  const double aligned = compares_per_find(shard0);
  const double uniform = compares_per_find(random);
  EXPECT_GE(aligned, 1.0);
  EXPECT_LE(aligned, 2.0 * uniform)
      << "shard-0 sources " << aligned << " vs random " << uniform
      << " comparisons per find";
}

}  // namespace
}  // namespace dnsguard::common
