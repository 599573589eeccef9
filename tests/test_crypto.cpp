// MD5 (RFC 1321 appendix test suite) and the paper's cookie construction.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/cookie_hash.h"
#include "crypto/md5.h"

namespace dnsguard::crypto {
namespace {

std::string md5_hex(std::string_view input) {
  Md5Digest d = Md5::hash(input);
  return hex_encode(BytesView(d.data(), d.size()));
}

// The seven reference digests from RFC 1321 §A.5.
TEST(Md5, Rfc1321TestSuite) {
  EXPECT_EQ(md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5_hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5_hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5_hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      md5_hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(md5_hex("123456789012345678901234567890123456789012345678901234567"
                    "89012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789abcdef";
  Md5Digest oneshot = Md5::hash(msg);
  for (std::size_t chunk : {1u, 3u, 7u, 63u, 64u, 65u}) {
    Md5 ctx;
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      ctx.update(std::string_view(msg).substr(i, chunk));
    }
    EXPECT_EQ(ctx.finish(), oneshot) << "chunk size " << chunk;
  }
}

TEST(Md5, ExactlyOneBlock) {
  std::string msg(64, 'x');
  Md5 ctx;
  ctx.update(msg);
  Md5Digest d = ctx.finish();
  EXPECT_EQ(d, Md5::hash(msg));
}

TEST(Md5, ResetReusesContext) {
  Md5 ctx;
  ctx.update(std::string_view("abc"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(std::string_view("abc"));
  EXPECT_EQ(hex_encode(BytesView(ctx.finish())),
            "900150983cd24fb0d6963f7d28e17f72");
}

TEST(CookieHash, KeyIs76Bytes) {
  // §III.E: 76-byte key + 4-byte source IP = 80-byte MD5 input.
  EXPECT_EQ(kCookieKeySize, 76u);
  EXPECT_EQ(kCookieSize, 16u);
}

TEST(CookieHash, DeterministicPerKeyAndIp) {
  CookieKey key = derive_key(42);
  Cookie a = compute_cookie(key, 0x0a000001);
  Cookie b = compute_cookie(key, 0x0a000001);
  EXPECT_EQ(a, b);
}

TEST(CookieHash, DifferentIpsGetDifferentCookies) {
  CookieKey key = derive_key(42);
  Cookie a = compute_cookie(key, 0x0a000001);
  Cookie b = compute_cookie(key, 0x0a000002);
  EXPECT_NE(a, b);
}

TEST(CookieHash, DifferentKeysGetDifferentCookies) {
  Cookie a = compute_cookie(derive_key(1), 0x0a000001);
  Cookie b = compute_cookie(derive_key(2), 0x0a000001);
  EXPECT_NE(a, b);
}

TEST(CookieHash, MatchesManualConstruction) {
  // The cookie must literally be MD5(key || ip_be).
  CookieKey key = derive_key(7);
  std::uint32_t ip = 0xc0a80101;  // 192.168.1.1
  Md5 ctx;
  ctx.update(BytesView(key.data(), key.size()));
  std::uint8_t ip_be[4] = {0xc0, 0xa8, 0x01, 0x01};
  ctx.update(BytesView(ip_be, 4));
  EXPECT_EQ(compute_cookie(key, ip), ctx.finish());
}

TEST(CookieHash, ConstantTimeEqualBehaviour) {
  Cookie a{}, b{};
  EXPECT_TRUE(cookie_equal(a, b));
  b[15] = 1;
  EXPECT_FALSE(cookie_equal(a, b));
  EXPECT_TRUE(cookie_prefix_equal(a, b, 15));
  EXPECT_FALSE(cookie_prefix_equal(a, b, 16));
}

TEST(CookiePrefix32, TakesFirstFourBytes) {
  Cookie c{};
  c[0] = 0x12;
  c[1] = 0x34;
  c[2] = 0x56;
  c[3] = 0x78;
  EXPECT_EQ(cookie_prefix32(c), 0x12345678u);
}

TEST(RotatingKeys, MintVerifyRoundTrip) {
  RotatingKeys keys(1001);
  Cookie c = keys.mint(0x0a000001);
  EXPECT_TRUE(keys.verify(0x0a000001, c));
  EXPECT_FALSE(keys.verify(0x0a000002, c));
}

TEST(RotatingKeys, GenerationBitRidesFirstBit) {
  RotatingKeys keys(1001);
  Cookie g0 = keys.mint(0x0a000001);
  EXPECT_EQ(g0[0] >> 7, 0);  // generation 0 parity
  keys.rotate(1002);
  Cookie g1 = keys.mint(0x0a000001);
  EXPECT_EQ(g1[0] >> 7, 1);  // generation 1 parity
}

TEST(RotatingKeys, PreviousGenerationStillVerifiesAfterOneRotation) {
  // §III.E: cookies from week N-1 remain valid in week N, each check
  // still costing exactly one MD5.
  RotatingKeys keys(1001);
  Cookie old_cookie = keys.mint(0x0a000001);
  keys.rotate(1002);
  EXPECT_TRUE(keys.verify(0x0a000001, old_cookie));
  Cookie new_cookie = keys.mint(0x0a000001);
  EXPECT_TRUE(keys.verify(0x0a000001, new_cookie));
}

TEST(RotatingKeys, TwoRotationsExpireOldCookies) {
  RotatingKeys keys(1001);
  Cookie old_cookie = keys.mint(0x0a000001);
  keys.rotate(1002);
  keys.rotate(1003);
  EXPECT_FALSE(keys.verify(0x0a000001, old_cookie));
}

TEST(RotatingKeys, Prefix32Verification) {
  RotatingKeys keys(77);
  Cookie c = keys.mint(0x0a000001);
  EXPECT_TRUE(keys.verify_prefix32(0x0a000001, cookie_prefix32(c)));
  EXPECT_FALSE(keys.verify_prefix32(0x0a000001, cookie_prefix32(c) ^ 1));
  EXPECT_FALSE(keys.verify_prefix32(0x0a000002, cookie_prefix32(c)));
}

TEST(RotatingKeys, Prefix32SurvivesOneRotation) {
  RotatingKeys keys(77);
  Cookie c = keys.mint(0x0a000001);
  keys.rotate(78);
  EXPECT_TRUE(keys.verify_prefix32(0x0a000001, cookie_prefix32(c)));
  keys.rotate(79);
  EXPECT_FALSE(keys.verify_prefix32(0x0a000001, cookie_prefix32(c)));
}

// Property sweep: many IPs round-trip mint/verify and never cross-verify.
class CookieSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CookieSweep, MintVerifyNeverCrossValidates) {
  RotatingKeys keys(2024);
  std::uint32_t ip = GetParam();
  Cookie c = keys.mint(ip);
  EXPECT_TRUE(keys.verify(ip, c));
  EXPECT_FALSE(keys.verify(ip + 1, c));
  EXPECT_FALSE(keys.verify(ip ^ 0x80000000, c));
}

INSTANTIATE_TEST_SUITE_P(ManyIps, CookieSweep,
                         ::testing::Values(0x0a000001u, 0xc0a80101u,
                                           0x08080808u, 0xfffffffeu, 0x1u,
                                           0xdeadbeefu, 0x7f000001u,
                                           0x0b16212cu));

TEST(CookieHasher, MidstateMatchesOneShotCompute) {
  // The pre-keyed hasher caches the MD5 midstate after the 76-byte key
  // (64 bytes = one full compression block); resuming from the copy must
  // be bit-identical to hashing key || ip from scratch.
  CookieKey key = derive_key(0xfeedULL);
  CookieHasher hasher(key);
  for (std::uint32_t ip :
       {0x0a000001u, 0xffffffffu, 0x0u, 0xdeadbeefu, 0x7f000001u}) {
    EXPECT_EQ(hasher.compute(ip), compute_cookie(key, ip)) << ip;
  }
}

TEST(RotatingKeys, GenZeroPreviousBitFailureIsNotStale) {
  // Before the first rotation there is no previous generation: a cookie
  // whose generation bit selects it is a plain forgery. This used to
  // report used_previous=true, which the guard charged to "stale key".
  RotatingKeys keys(501);
  Cookie forged = keys.mint(0x0a000001);
  forged[0] ^= 0x80;  // flip the generation bit to "previous"
  VerifyResult vr = keys.verify_ex(0x0a000001, forged);
  EXPECT_FALSE(vr.ok);
  EXPECT_FALSE(vr.used_previous);
  EXPECT_FALSE(vr.stale);
  VerifyResult pr = keys.verify_prefix32_ex(0x0a000001,
                                            cookie_prefix32(forged));
  EXPECT_FALSE(pr.ok);
  EXPECT_FALSE(pr.used_previous);
  EXPECT_FALSE(pr.stale);
}

TEST(RotatingKeys, RetiredGenerationCookieClassifiedStaleNotForged) {
  // A cookie from two rotations back carries the current parity (the bit
  // alternates), fails the current-key check, but matches the retired key
  // exactly: a real-but-outdated client, reported via `stale`. A random
  // forgery with the same parity stays stale=false.
  RotatingKeys keys(501);
  Cookie old_cookie = keys.mint(0x0a000001);
  keys.rotate(502);
  keys.rotate(503);
  VerifyResult vr = keys.verify_ex(0x0a000001, old_cookie);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.stale);
  VerifyResult pr = keys.verify_prefix32_ex(0x0a000001,
                                            cookie_prefix32(old_cookie));
  EXPECT_FALSE(pr.ok);
  EXPECT_TRUE(pr.stale);

  Cookie forged{};
  forged[0] = static_cast<std::uint8_t>((keys.generation() & 1) << 7);
  VerifyResult fr = keys.verify_ex(0x0a000001, forged);
  EXPECT_FALSE(fr.ok);
  EXPECT_FALSE(fr.stale);
  // And never on success.
  EXPECT_FALSE(keys.verify_ex(0x0a000001, keys.mint(0x0a000001)).stale);
}

}  // namespace
}  // namespace dnsguard::crypto
