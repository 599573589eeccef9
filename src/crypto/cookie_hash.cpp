#include "crypto/cookie_hash.h"

#include "common/rng.h"

namespace dnsguard::crypto {

CookieKey derive_key(std::uint64_t seed) {
  Rng rng(seed);
  CookieKey key{};
  for (std::size_t i = 0; i < key.size(); i += 8) {
    std::uint64_t v = rng.next();
    for (std::size_t j = 0; j < 8 && i + j < key.size(); ++j) {
      key[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
    }
  }
  return key;
}

Cookie compute_cookie(const CookieKey& key, std::uint32_t ip) {
  Md5 ctx;
  ctx.update(BytesView(key.data(), key.size()));
  std::uint8_t ip_be[4] = {
      static_cast<std::uint8_t>(ip >> 24), static_cast<std::uint8_t>(ip >> 16),
      static_cast<std::uint8_t>(ip >> 8), static_cast<std::uint8_t>(ip)};
  ctx.update(BytesView(ip_be, 4));
  return ctx.finish();
}

bool cookie_equal(const Cookie& a, const Cookie& b) {
  return cookie_prefix_equal(a, b, kCookieSize);
}

bool cookie_prefix_equal(const Cookie& a, const Cookie& b, std::size_t n) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < n && i < kCookieSize; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

std::uint32_t cookie_prefix32(const Cookie& c) {
  return (static_cast<std::uint32_t>(c[0]) << 24) |
         (static_cast<std::uint32_t>(c[1]) << 16) |
         (static_cast<std::uint32_t>(c[2]) << 8) |
         static_cast<std::uint32_t>(c[3]);
}

RotatingKeys::RotatingKeys(std::uint64_t seed)
    : current_(derive_key(seed)),
      previous_(current_),
      retired_(current_),
      current_hasher_(current_),
      previous_hasher_(current_hasher_),
      retired_hasher_(current_hasher_) {}

void RotatingKeys::rotate(std::uint64_t new_seed) {
  retired_ = previous_;
  retired_hasher_ = previous_hasher_;
  previous_ = current_;
  previous_hasher_ = current_hasher_;
  current_ = derive_key(new_seed);
  current_hasher_ = CookieHasher(current_);
  ++generation_;
}

Cookie RotatingKeys::mint_with(const CookieHasher& hasher, std::uint32_t ip,
                               std::uint32_t generation) const {
  Cookie c = hasher.compute(ip);
  // Overwrite the first bit with the generation parity (§III.E).
  c[0] = static_cast<std::uint8_t>((c[0] & 0x7f) | ((generation & 1) << 7));
  return c;
}

Cookie RotatingKeys::mint(std::uint32_t ip) const {
  return mint_with(current_hasher_, ip, generation_);
}

std::optional<Cookie> RotatingKeys::mint_previous(std::uint32_t ip) const {
  if (generation_ == 0) return std::nullopt;
  return mint_with(previous_hasher_, ip, generation_ - 1);
}

std::optional<Cookie> RotatingKeys::mint_retired(std::uint32_t ip) const {
  if (generation_ < 2) return std::nullopt;
  return mint_with(retired_hasher_, ip, generation_ - 2);
}

VerifyResult RotatingKeys::verify_ex(std::uint32_t ip,
                                     const Cookie& presented) const {
  std::uint32_t presented_gen = presented[0] >> 7;
  bool is_current = presented_gen == (generation_ & 1);
  // At generation 0 no previous generation exists: a cookie whose bit
  // selects it cannot be a pre-rotation survivor — it is simply invalid.
  // (This used to report used_previous=true, so the guard charged the
  // drop to "stale key" when no rotation had ever happened.)
  if (!is_current && generation_ == 0) return {false, false, false};
  const CookieHasher& hasher =
      is_current ? current_hasher_ : previous_hasher_;
  std::uint32_t gen = is_current ? generation_ : generation_ - 1;
  Cookie expected = mint_with(hasher, ip, gen);
  if (cookie_equal(expected, presented)) return {true, !is_current, false};
  // Failure classification: a cookie minted two generations ago carries
  // the *current* parity (the bit alternates), so it fails the current-key
  // check — but an exact match under the retired key proves it was once
  // genuine. Costs a second MD5 only on failures, and only once a retired
  // generation exists at all.
  bool stale = false;
  if (is_current) {
    if (auto retired = mint_retired(ip)) {
      stale = cookie_equal(*retired, presented);
    }
  }
  return {false, !is_current, stale};
}

VerifyResult RotatingKeys::verify_prefix32_ex(
    std::uint32_t ip, std::uint32_t presented_prefix) const {
  std::uint32_t presented_gen = presented_prefix >> 31;
  bool is_current = presented_gen == (generation_ & 1);
  if (!is_current && generation_ == 0) return {false, false, false};
  const CookieHasher& hasher =
      is_current ? current_hasher_ : previous_hasher_;
  std::uint32_t gen = is_current ? generation_ : generation_ - 1;
  Cookie expected = mint_with(hasher, ip, gen);
  // Constant-time compare of the 4-byte prefix.
  std::uint32_t exp = cookie_prefix32(expected);
  if ((exp ^ presented_prefix) == 0) return {true, !is_current, false};
  bool stale = false;
  if (is_current) {
    if (auto retired = mint_retired(ip)) {
      stale = cookie_prefix32(*retired) == presented_prefix;
    }
  }
  return {false, !is_current, stale};
}

}  // namespace dnsguard::crypto
