// Token buckets, rate estimation, heavy-hitter tracking and the guard's
// two rate limiters.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ratelimit/limiters.h"
#include "ratelimit/token_bucket.h"
#include "ratelimit/topk.h"
#include "space_saving_reference.h"

namespace dnsguard::ratelimit {
namespace {

using net::Ipv4Address;

TEST(TokenBucket, StartsFullAndDrains) {
  TokenBucket tb(10.0, 5.0);
  SimTime t{};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tb.try_consume(t));
  EXPECT_FALSE(tb.try_consume(t));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket tb(10.0, 5.0);
  SimTime t{};
  while (tb.try_consume(t)) {
  }
  t = t + milliseconds(100);  // 1 token accrued
  EXPECT_TRUE(tb.try_consume(t));
  EXPECT_FALSE(tb.try_consume(t));
}

TEST(TokenBucket, NeverExceedsBurst) {
  TokenBucket tb(1000.0, 3.0);
  SimTime t = SimTime{} + seconds(100);  // long idle
  EXPECT_NEAR(tb.available(t), 3.0, 1e-9);
}

TEST(TokenBucket, LongRunRateBounded) {
  // Property: over any horizon, admitted <= rate*t + burst.
  TokenBucket tb(50.0, 10.0);
  SimTime t{};
  int admitted = 0;
  for (int ms = 0; ms < 2000; ++ms) {
    t = SimTime{} + milliseconds(ms);
    // Offer far more than the rate.
    for (int k = 0; k < 5; ++k) {
      if (tb.try_consume(t)) admitted++;
    }
  }
  EXPECT_LE(admitted, 50 * 2 + 10);
  EXPECT_GE(admitted, 50 * 2);  // and the full rate is actually usable
}

TEST(TokenBucket, FractionalCosts) {
  TokenBucket tb(1.0, 1.0);
  SimTime t{};
  EXPECT_TRUE(tb.try_consume(t, 0.5));
  EXPECT_TRUE(tb.try_consume(t, 0.5));
  EXPECT_FALSE(tb.try_consume(t, 0.1));
}

TEST(TokenBucket, SetRateSettlesElapsedWindowUnderOldRate) {
  // Regression: set_rate used to swap rate_ without refilling, so the
  // window since the last refill was retroactively re-priced under the
  // NEW rate. A mid-window rate cut confiscated already-earned tokens.
  TokenBucket tb(100.0, 50.0);
  SimTime t{};
  while (tb.try_consume(t)) {
  }
  // 100 ms at 100/s earns 10 tokens...
  t = t + milliseconds(100);
  tb.set_rate(1.0, t);  // ...which a cut to 1/s must not confiscate.
  EXPECT_NEAR(tb.available(t), 10.0, 1e-9);
  // And from here tokens accrue at the new rate.
  t = t + seconds(2);
  EXPECT_NEAR(tb.available(t), 12.0, 1e-9);
}

TEST(TokenBucket, SetRateDoesNotGrantUnearnedTokens) {
  // The mirror bug: raising the rate mid-window granted tokens the old
  // rate never accrued (elapsed * new_rate instead of elapsed * old_rate).
  TokenBucket tb(1.0, 100.0);
  SimTime t{};
  while (tb.try_consume(t)) {
  }
  t = t + seconds(10);  // 10 tokens at the old 1/s rate
  tb.set_rate(1000.0, t);
  EXPECT_NEAR(tb.available(t), 10.0, 1e-9);
}

TEST(TokenBucket, SetRateClampsSettledTokensToBurst) {
  TokenBucket tb(10.0, 5.0);
  SimTime t = SimTime{} + seconds(100);  // long idle: bucket full
  tb.set_rate(2.0, t);
  EXPECT_NEAR(tb.available(t), 5.0, 1e-9);
  EXPECT_NEAR(tb.rate(), 2.0, 1e-12);
}

TEST(RateEstimator, ConvergesToSteadyRate) {
  RateEstimator est(milliseconds(250));
  SimTime t{};
  // 1000 events/sec for 2 seconds.
  for (int i = 0; i < 2000; ++i) {
    t = SimTime{} + microseconds(i * 1000);
    est.record(t);
  }
  double r = est.rate(t);
  EXPECT_NEAR(r, 1000.0, 150.0);
}

TEST(RateEstimator, DecaysWhenIdle) {
  RateEstimator est(milliseconds(100));
  SimTime t{};
  for (int i = 0; i < 1000; ++i) {
    t = SimTime{} + microseconds(i * 100);
    est.record(t);
  }
  double busy = est.rate(t);
  double idle = est.rate(t + seconds(1));
  EXPECT_LT(idle, busy / 100.0);
}

TEST(RateEstimator, TracksRateIncrease) {
  RateEstimator est(milliseconds(100));
  SimTime t{};
  for (int i = 0; i < 100; ++i) {
    t = SimTime{} + milliseconds(i * 10);  // 100/sec
    est.record(t);
  }
  double low = est.rate(t);
  for (int i = 0; i < 2000; ++i) {
    t = t + microseconds(500);  // 2000/sec
    est.record(t);
  }
  double high = est.rate(t);
  EXPECT_GT(high, low * 5);
}

TEST(SpaceSaving, ExactBelowCapacity) {
  SpaceSaving<int> ss(8);
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k <= i; ++k) ss.record(i);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ss.estimate(i), static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(ss.error(i), 0u);
  }
}

TEST(SpaceSaving, HeavyHitterAlwaysTracked) {
  SpaceSaving<int> ss(10);
  // One heavy key among a stream of distinct light keys.
  for (int i = 0; i < 3000; ++i) {
    ss.record(999);
    ss.record(10000 + i);  // all distinct, disjoint from 999
  }
  EXPECT_TRUE(ss.contains(999));
  // Space-Saving guarantee: estimate >= true count.
  EXPECT_GE(ss.estimate(999), 3000u);
  // And the overestimate is bounded by the recorded error.
  EXPECT_LE(ss.estimate(999) - ss.error(999), 3000u);
}

TEST(SpaceSaving, CapacityIsRespected) {
  SpaceSaving<int> ss(4);
  for (int i = 0; i < 100; ++i) ss.record(i);
  EXPECT_EQ(ss.size(), 4u);
}

TEST(SpaceSaving, TopIsSortedByCount) {
  SpaceSaving<int> ss(8);
  for (int i = 0; i < 10; ++i) ss.record(1);
  for (int i = 0; i < 5; ++i) ss.record(2);
  ss.record(3);
  auto top = ss.top();
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(top[0].key, 1);
  EXPECT_EQ(top[1].key, 2);
}

TEST(SpaceSaving, MatchesLinearScanReference) {
  // The heap must evict exactly the entry the linear scan picks (the
  // lowest slot among the minimum counts), so every observable agrees:
  // record() returns, probes of random keys, and top() including the
  // order of ties. Uniform streams over a large key space are the
  // spoofer's fresh-source-per-packet pattern; log-skewed ones mix heavy
  // hitters with a long tail.
  constexpr int kRecords = 20000;
  std::uint64_t records = 0;
  Rng rng(0x70b5eed);
  for (const std::size_t capacity : {1, 2, 3, 7, 64, 256, 1024}) {
    for (const std::uint32_t keys : {4u, 64u, 4096u, 1u << 20}) {
      for (const bool skewed : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                          << ", keys " << keys
                                          << (skewed ? ", log-skewed"
                                                     : ", uniform"));
        const double log_keys = std::log(static_cast<double>(keys));
        auto draw = [&]() -> std::uint32_t {
          if (!skewed) return static_cast<std::uint32_t>(rng.bounded(keys));
          const auto k = static_cast<std::uint32_t>(
              std::exp(rng.uniform01() * log_keys)) - 1;
          return k < keys ? k : keys - 1;
        };
        SpaceSaving<std::uint32_t> heap(capacity);
        oracle::ReferenceSpaceSaving<std::uint32_t> scan(capacity);
        for (int i = 0; i < kRecords; ++i) {
          const std::uint32_t key = draw();
          ASSERT_EQ(heap.record(key), scan.record(key)) << "record " << i;
          ++records;
          const std::uint32_t probe = draw();
          ASSERT_EQ(heap.contains(probe), scan.contains(probe));
          ASSERT_EQ(heap.estimate(probe), scan.estimate(probe));
          ASSERT_EQ(heap.error(probe), scan.error(probe));
          if (i % 997 == 0 || i == kRecords - 1) {
            const auto a = heap.top();
            const auto b = scan.top();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t j = 0; j < a.size(); ++j) {
              ASSERT_EQ(a[j].key, b[j].key) << "top()[" << j << "]";
              ASSERT_EQ(a[j].count, b[j].count);
              ASSERT_EQ(a[j].error, b[j].error);
            }
          }
        }
        EXPECT_EQ(heap.size(), scan.size());
      }
    }
  }
  EXPECT_EQ(records, 7u * 4u * 2u * kRecords);
}

TEST(CookieResponseLimiter, LightRequestersNeverThrottled) {
  CookieResponseLimiter rl1(CookieResponseLimiter::Config{
      .per_address_rate = 1.0, .per_address_burst = 1.0,
      .tracker_capacity = 64, .heavy_hitter_threshold = 100});
  SimTime t{};
  Ipv4Address lrs(10, 0, 1, 1);
  // A legitimate LRS asks for a cookie a few dozen times: always allowed.
  for (int i = 0; i < 99; ++i) {
    EXPECT_TRUE(rl1.allow(lrs, t + milliseconds(i)));
  }
  EXPECT_EQ(rl1.stats().throttled, 0u);
}

TEST(CookieResponseLimiter, HeavyRequesterThrottled) {
  CookieResponseLimiter rl1(CookieResponseLimiter::Config{
      .per_address_rate = 10.0, .per_address_burst = 5.0,
      .tracker_capacity = 64, .heavy_hitter_threshold = 8});
  SimTime t{};
  Ipv4Address victim(10, 0, 9, 9);
  int allowed = 0;
  // An attacker triggers 10K cookie responses toward one victim in 1 s.
  for (int i = 0; i < 10000; ++i) {
    if (rl1.allow(victim, t + microseconds(i * 100))) allowed++;
  }
  // Only threshold + burst + ~rate*1s should get through.
  EXPECT_LT(allowed, 40);
  EXPECT_GT(rl1.stats().throttled, 9000u);
}

TEST(CookieResponseLimiter, IndependentPerAddress) {
  CookieResponseLimiter rl1(CookieResponseLimiter::Config{
      .per_address_rate = 1.0, .per_address_burst = 1.0,
      .tracker_capacity = 64, .heavy_hitter_threshold = 4});
  SimTime t{};
  Ipv4Address a(1, 1, 1, 1), b(2, 2, 2, 2);
  for (int i = 0; i < 10; ++i) (void)rl1.allow(a, t);
  // Saturating `a` must not affect `b`'s first requests.
  EXPECT_TRUE(rl1.allow(b, t));
}

TEST(CookieResponseLimiter, SpoofedSprayKeepsBucketMapBounded) {
  // Regression: the per-address bucket map had no cap, so an attacker
  // spraying spoofed heavy-hitter sources grew it without bound — the
  // reflector defense itself became the memory-exhaustion target.
  CookieResponseLimiter rl1(CookieResponseLimiter::Config{
      .per_address_rate = 10.0, .per_address_burst = 5.0,
      .tracker_capacity = 256, .heavy_hitter_threshold = 1,
      .max_buckets = 64, .bucket_idle_timeout = seconds(10)});
  SimTime t{};
  for (std::uint32_t i = 0; i < 100000; ++i) {
    (void)rl1.allow(Ipv4Address(0x0a000000 + i), t + microseconds(i));
  }
  EXPECT_LE(rl1.tracked_buckets(), 64u);
  EXPECT_LE(rl1.table_stats().occupancy.max(), 64);
  EXPECT_GT(rl1.table_stats().evicted_capacity.value(), 0u);
}

TEST(CookieResponseLimiter, IdleBucketsAreReaped) {
  CookieResponseLimiter rl1(CookieResponseLimiter::Config{
      .per_address_rate = 10.0, .per_address_burst = 5.0,
      .tracker_capacity = 256, .heavy_hitter_threshold = 1,
      .max_buckets = 64, .bucket_idle_timeout = seconds(1)});
  SimTime t{};
  for (int i = 0; i < 10; ++i) {
    (void)rl1.allow(Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)), t);
  }
  EXPECT_EQ(rl1.tracked_buckets(), 10u);
  // Two idle seconds later, fresh traffic's incremental reaping clears
  // the stale buckets.
  SimTime later = t + seconds(2);
  for (int i = 0; i < 32; ++i) {
    (void)rl1.allow(Ipv4Address(10, 9, 0, 1), later + milliseconds(i));
  }
  EXPECT_LE(rl1.tracked_buckets(), 2u);
  EXPECT_GE(rl1.table_stats().expired_idle.value(), 10u);
}

TEST(VerifiedRequestLimiter, CapsPerHostRate) {
  VerifiedRequestLimiter rl2(VerifiedRequestLimiter::Config{
      .per_host_rate = 100.0, .per_host_burst = 10.0, .max_hosts = 100});
  SimTime t{};
  Ipv4Address host(10, 0, 1, 1);
  int allowed = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rl2.allow(host, t + microseconds(i * 200))) allowed++;  // 5K/s offered
  }
  // ~100/s for 1 s + burst.
  EXPECT_LE(allowed, 115);
  EXPECT_GE(allowed, 100);
}

TEST(VerifiedRequestLimiter, TableBoundRefusesOverflowHosts) {
  VerifiedRequestLimiter rl2(VerifiedRequestLimiter::Config{
      .per_host_rate = 10.0, .per_host_burst = 5.0, .max_hosts = 4});
  SimTime t{};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(rl2.allow(Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)), t));
  }
  EXPECT_FALSE(rl2.allow(Ipv4Address(10, 0, 0, 200), t));
  EXPECT_EQ(rl2.tracked_hosts(), 4u);
}

TEST(VerifiedRequestLimiter, IdleHostsFreeSlotsForNewOnes) {
  // A full table of *departed* hosts must not lock out new clients
  // forever: idle entries are reaped and their slots recycled.
  VerifiedRequestLimiter rl2(VerifiedRequestLimiter::Config{
      .per_host_rate = 10.0, .per_host_burst = 5.0, .max_hosts = 4,
      .host_idle_timeout = seconds(1)});
  SimTime t{};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        rl2.allow(Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i)), t));
  }
  EXPECT_FALSE(rl2.allow(Ipv4Address(10, 0, 0, 200), t));
  EXPECT_TRUE(rl2.allow(Ipv4Address(10, 0, 0, 200), t + seconds(2)));
  EXPECT_GE(rl2.table_stats().expired_idle.value(), 1u);
}

// Property: per-host isolation — N hosts each get their fair rate.
class Rl2Fairness : public ::testing::TestWithParam<int> {};

TEST_P(Rl2Fairness, EachHostGetsItsRate) {
  int hosts = GetParam();
  VerifiedRequestLimiter rl2(VerifiedRequestLimiter::Config{
      .per_host_rate = 50.0, .per_host_burst = 5.0, .max_hosts = 1000});
  std::vector<int> allowed(static_cast<std::size_t>(hosts), 0);
  for (int ms = 0; ms < 1000; ++ms) {
    SimTime t = SimTime{} + milliseconds(ms);
    for (int h = 0; h < hosts; ++h) {
      if (rl2.allow(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(h)), t)) {
        allowed[static_cast<std::size_t>(h)]++;
      }
    }
  }
  for (int h = 0; h < hosts; ++h) {
    EXPECT_GE(allowed[static_cast<std::size_t>(h)], 50);
    EXPECT_LE(allowed[static_cast<std::size_t>(h)], 56);
  }
}

INSTANTIATE_TEST_SUITE_P(HostCounts, Rl2Fairness, ::testing::Values(1, 4, 16));

}  // namespace
}  // namespace dnsguard::ratelimit
