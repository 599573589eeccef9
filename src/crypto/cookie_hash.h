// The paper's cookie construction (§III.E):
//
//   c = MD5(key || source_ip)
//
// where `key` is a 76-byte per-guard secret and source_ip the 4-byte
// requester address, giving an 80-byte MD5 input and a 16-byte cookie.
// Key distribution is unnecessary: only the guard verifies cookies.
//
// Key rotation (§III.E last paragraph) overloads the first cookie *bit*
// as a generation indicator: cookies minted under generation g carry bit
// g % 2, and the guard accepts the previous generation's key for cookies
// whose bit doesn't match the current one, so rotation never invalidates
// cookies younger than one rotation interval and each check still costs
// exactly one MD5.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "crypto/md5.h"
#include "obs/profiler.h"

namespace dnsguard::crypto {

inline constexpr std::size_t kCookieKeySize = 76;
inline constexpr std::size_t kCookieSize = 16;

using CookieKey = std::array<std::uint8_t, kCookieKeySize>;
using Cookie = std::array<std::uint8_t, kCookieSize>;

/// Derives a fresh 76-byte key from a 64-bit seed (deterministic, for
/// reproducible experiments; a deployment would read /dev/urandom).
[[nodiscard]] CookieKey derive_key(std::uint64_t seed);

/// c = MD5(key || ipv4_be). `ip` is the requester address in host order.
[[nodiscard]] Cookie compute_cookie(const CookieKey& key, std::uint32_t ip);

/// Pre-keyed cookie hasher: absorbs the 76-byte key once and caches the
/// MD5 midstate (the first 64 key bytes fill exactly one compression
/// block). Each compute() then copies the small context, appends the
/// 4-byte address and finalizes — one block process per cookie instead of
/// two, which roughly halves every mint's and verifier's wall cost.
class CookieHasher {
 public:
  CookieHasher() = default;
  explicit CookieHasher(const CookieKey& key) {
    base_.update(BytesView(key.data(), key.size()));
  }

  /// c = MD5(key || ipv4_be), identical to compute_cookie(key, ip).
  [[nodiscard]] Cookie compute(std::uint32_t ip) const {
    DNSGUARD_PROF_SCOPE(obs::prof::Stage::kCookieHash);
    Md5 ctx = base_;  // midstate copy: key already absorbed
    const std::uint8_t ip_be[4] = {static_cast<std::uint8_t>(ip >> 24),
                                   static_cast<std::uint8_t>(ip >> 16),
                                   static_cast<std::uint8_t>(ip >> 8),
                                   static_cast<std::uint8_t>(ip)};
    ctx.update(BytesView(ip_be, 4));
    return ctx.finish();
  }

 private:
  Md5 base_;
};

/// Constant-time equality over full 16-byte cookies.
[[nodiscard]] bool cookie_equal(const Cookie& a, const Cookie& b);

/// Constant-time equality over the first `n` bytes (truncated encodings,
/// e.g. the 4-byte NS-name cookie).
[[nodiscard]] bool cookie_prefix_equal(const Cookie& a, const Cookie& b,
                                       std::size_t n);

/// First 4 cookie bytes as a big-endian integer — the value the DNS-based
/// scheme encodes in NS names and, modulo R_y, in fabricated IPs.
[[nodiscard]] std::uint32_t cookie_prefix32(const Cookie& c);

/// Outcome of a generation-aware verification: `ok` is the accept/reject
/// decision; `used_previous` says the check resolved against the previous
/// key generation — on success, the requester holds a pre-rotation cookie.
/// `stale` is a classification hint on *failures*: the cookie matches a
/// retired generation (minted two rotations ago), so the requester is a
/// real-but-outdated client, not a random guesser. It never makes a
/// failure acceptable; it only picks the drop reason.
struct VerifyResult {
  bool ok = false;
  bool used_previous = false;
  bool stale = false;
};

/// Rotating key schedule: holds the current and previous generation keys.
class RotatingKeys {
 public:
  explicit RotatingKeys(std::uint64_t seed);

  /// Advances to the next generation (called once per rotation interval,
  /// e.g. weekly in the paper).
  void rotate(std::uint64_t new_seed);

  /// Mints a cookie for `ip` under the current key, with the first bit
  /// overwritten by the current generation parity.
  [[nodiscard]] Cookie mint(std::uint32_t ip) const;

  /// Mints under the *previous* generation's key, or nullopt at generation
  /// 0 (no previous exists). Needed by encodings whose transformation
  /// folds away the generation bit — the fabricated-IP scheme reduces the
  /// cookie mod R_y, so its verifier must recompute under both keys.
  [[nodiscard]] std::optional<Cookie> mint_previous(std::uint32_t ip) const;

  /// Mints under the *retired* key (two generations back), or nullopt
  /// before the second rotation. Never accepted — retained purely so
  /// verifiers can classify a failure as "stale key" (a real client whose
  /// cookie aged out) instead of "bad cookie" (a guess); the drop-reason
  /// split is what the operator dashboards alarm on.
  [[nodiscard]] std::optional<Cookie> mint_retired(std::uint32_t ip) const;

  /// Verifies a presented cookie: the embedded generation bit selects
  /// current vs previous key; exactly one MD5 is computed.
  [[nodiscard]] bool verify(std::uint32_t ip, const Cookie& presented) const {
    return verify_ex(ip, presented).ok;
  }
  /// As verify(), but also reports which key generation was selected —
  /// the observability layer counts verifications per generation.
  [[nodiscard]] VerifyResult verify_ex(std::uint32_t ip,
                                       const Cookie& presented) const;

  /// Verifies only the first 4 bytes (for NS-name / IP encodings, which
  /// truncate the cookie). The generation bit is part of those 4 bytes.
  [[nodiscard]] bool verify_prefix32(std::uint32_t ip,
                                     std::uint32_t presented_prefix) const {
    return verify_prefix32_ex(ip, presented_prefix).ok;
  }
  [[nodiscard]] VerifyResult verify_prefix32_ex(
      std::uint32_t ip, std::uint32_t presented_prefix) const;

  [[nodiscard]] std::uint32_t generation() const { return generation_; }

 private:
  [[nodiscard]] Cookie mint_with(const CookieHasher& hasher, std::uint32_t ip,
                                 std::uint32_t generation) const;

  CookieKey current_;
  CookieKey previous_;
  CookieKey retired_;  // two generations back: classification only
  CookieHasher current_hasher_;
  CookieHasher previous_hasher_;
  CookieHasher retired_hasher_;
  std::uint32_t generation_ = 0;
};

}  // namespace dnsguard::crypto
