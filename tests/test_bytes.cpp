// Unit tests for the byte writer, hex and RNG foundations.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"

namespace dnsguard {
namespace {

TEST(ByteWriter, WritesBigEndian) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789abcde);
  ASSERT_EQ(w.size(), 7u);
  const Bytes& b = w.bytes();
  EXPECT_EQ(b[0], 0x12);
  EXPECT_EQ(b[1], 0x34);
  EXPECT_EQ(b[2], 0x56);
  EXPECT_EQ(b[3], 0x78);
  EXPECT_EQ(b[4], 0x9a);
  EXPECT_EQ(b[5], 0xbc);
  EXPECT_EQ(b[6], 0xde);
}

TEST(ByteWriter, PatchU16Overwrites) {
  ByteWriter w;
  w.u16(0);
  w.u32(0xdeadbeef);
  w.patch_u16(0, 0xcafe);
  EXPECT_EQ(w.bytes()[0], 0xca);
  EXPECT_EQ(w.bytes()[1], 0xfe);
}

TEST(ByteWriter, PatchBeyondEndIsIgnored) {
  ByteWriter w;
  w.u8(1);
  w.patch_u16(0, 0xffff);  // would need 2 bytes, only 1 present
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.bytes()[0], 1);
}

TEST(Hex, EncodesLowercase) {
  Bytes data{0x00, 0xff, 0xa1, 0x0b};
  EXPECT_EQ(hex_encode(BytesView(data)), "00ffa10b");
}

TEST(Hex, DecodeRoundTrips) {
  auto out = hex_decode("00ffa10b");
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Bytes{0x00, 0xff, 0xa1, 0x0b}));
}

TEST(Hex, DecodeAcceptsUppercase) {
  auto out = hex_decode("DEADBEEF");
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, DecodeRejectsOddLength) {
  EXPECT_FALSE(hex_decode("abc").has_value());
}

TEST(Hex, DecodeRejectsNonHex) {
  EXPECT_FALSE(hex_decode("zz").has_value());
  EXPECT_FALSE(is_hex("PRa1"));
  EXPECT_TRUE(is_hex("a1b2c3d4"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(5);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) seen[rng.bounded(10)]++;
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(SimTimeArithmetic, Works) {
  SimTime t{1000};
  SimDuration d = milliseconds(2);
  EXPECT_EQ((t + d).ns, 1000 + 2000000);
  EXPECT_EQ((t + d - t).ns, d.ns);
  EXPECT_EQ(milliseconds(1).millis(), 1.0);
  EXPECT_EQ(seconds(1).seconds(), 1.0);
  EXPECT_EQ((microseconds(3) * 4).ns, 12000);
}

TEST(FormatDuration, ChoosesUnits) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(5)), "5.000us");
  EXPECT_EQ(format_duration(milliseconds(5)), "5.000ms");
  EXPECT_EQ(format_duration(seconds(5)), "5.000s");
}

TEST(Percentiles, ExactQuantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(p.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(p.percentile(90), 90.1, 1e-9);
  EXPECT_NEAR(p.mean(), 50.5, 1e-9);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_EQ(p.percentile(50), 0.0);
}

}  // namespace
}  // namespace dnsguard
