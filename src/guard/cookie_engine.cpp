#include "guard/cookie_engine.h"

#include <algorithm>

#include "common/hex.h"

namespace dnsguard::guard {

std::optional<CookieEngine::CookieLabel> CookieEngine::make_cookie_label(
    net::Ipv4Address requester, std::string_view restore_label) const {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardMint);
  const std::uint32_t prefix = crypto::cookie_prefix32(mint(requester));
  const std::size_t len =
      kCookieLabelPrefix.size() + kCookieHexChars + restore_label.size();
  if (len > dns::kMaxLabelLength) return std::nullopt;
  CookieLabel label;
  auto out = std::copy(kCookieLabelPrefix.begin(), kCookieLabelPrefix.end(),
                       label.buf_.begin());
  for (int shift = 28; shift >= 0; shift -= 4) {
    *out++ = hex_digit(prefix >> shift);
  }
  std::copy(restore_label.begin(), restore_label.end(), out);
  label.len_ = static_cast<std::uint8_t>(len);
  return label;
}

std::optional<CookieEngine::ParsedLabel> CookieEngine::parse_cookie_label(
    std::string_view label) {
  if (label.size() < kCookieLabelPrefix.size() + kCookieHexChars ||
      !label.starts_with(kCookieLabelPrefix)) {
    return std::nullopt;
  }
  std::uint32_t prefix = 0;
  for (std::size_t i = 0; i < kCookieHexChars; ++i) {
    const int v = hex_value(label[kCookieLabelPrefix.size() + i]);
    if (v < 0) return std::nullopt;
    prefix = prefix << 4 | static_cast<std::uint32_t>(v);
  }
  label.remove_prefix(kCookieLabelPrefix.size() + kCookieHexChars);
  return ParsedLabel{prefix, label};
}

// Mint and verify must agree on the divisor: a config with r_y == 0 still
// mints addresses in (base, base + 1] (divisor clamped to 1), so the
// verify path has to clamp identically or every legitimate follow-up
// query under that config is rejected as a spoof. The upper clamp closes
// the symmetric bug for huge R_y: cookie addresses live in
// (base, base + divisor], and with r_y near 2^32 the mint side used to
// wrap the 32-bit address space and produce addresses the verifier's
// range check (correctly) rejects — every legitimate follow-up query
// under such a config was dropped as a spoof. Capping the divisor so
// base + divisor cannot wrap keeps both sides in agreement for any r_y.
static constexpr std::uint32_t sanitized_r_y(std::uint32_t r_y,
                                             std::uint32_t subnet_base) {
  const std::uint32_t max_div = 0xffffffffU - subnet_base;
  std::uint32_t d = r_y == 0 ? 1 : r_y;
  if (max_div > 0 && d > max_div) d = max_div;
  return d == 0 ? 1 : d;
}

net::Ipv4Address CookieEngine::make_cookie_address(
    net::Ipv4Address requester, net::Ipv4Address subnet_base,
    std::uint32_t r_y) const {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardMint);
  crypto::Cookie c = mint(requester);
  std::uint32_t y =
      crypto::cookie_prefix32(c) % sanitized_r_y(r_y, subnet_base.value());
  return net::Ipv4Address(subnet_base.value() + 1 + y);
}

crypto::VerifyResult CookieEngine::verify_cookie_address_ex(
    net::Ipv4Address requester, net::Ipv4Address dst,
    net::Ipv4Address subnet_base, std::uint32_t r_y) const {
  DNSGUARD_PROF_SCOPE(obs::prof::Stage::kGuardVerify);
  const std::uint32_t divisor = sanitized_r_y(r_y, subnet_base.value());
  if (dst.value() <= subnet_base.value()) return {false, false, false};
  std::uint32_t offset = dst.value() - subnet_base.value() - 1;
  if (offset >= divisor) return {false, false, false};
  // Both current and previous key generation must be checked, mirroring
  // verify_prefix semantics: recompute under the generation the requester
  // might hold. The IP encoding carries no generation bit (mod R_y folds
  // it away), so try both; otherwise a weekly rotation would silently
  // drop every legitimate follow-up query holding a pre-rotation address.
  crypto::Cookie current = mint(requester);
  if (crypto::cookie_prefix32(current) % divisor == offset) {
    return {true, false, false};
  }
  if (auto prev = keys_.mint_previous(requester.value())) {
    if (crypto::cookie_prefix32(*prev) % divisor == offset) {
      return {true, true, false};
    }
  }
  // Failure classification: an address that matches the *retired* key
  // (two rotations back) belongs to a real client whose cookie aged out,
  // not to a guesser — charge it to kStaleKey, not kBadCookie. The mod-R_y
  // fold makes this a probabilistic signal (a guess lands on the retired
  // offset with probability 1/R_y), which is exactly the 1/R_y confusion
  // bound the encoding already concedes (§III.G).
  if (auto retired = keys_.mint_retired(requester.value())) {
    if (crypto::cookie_prefix32(*retired) % divisor == offset) {
      return {false, false, true};
    }
  }
  return {false, false, false};
}

namespace {

/// A root-owned TXT record whose first string is 16 bytes: the modified-DNS
/// cookie; nullptr for any other record.
const dns::TxtRdata* cookie_txt(const dns::ResourceRecord& rr) {
  if (rr.type != dns::RrType::TXT || !rr.name.is_root()) return nullptr;
  const auto* txt = std::get_if<dns::TxtRdata>(&rr.rdata);
  if (txt == nullptr || txt->front().size() != crypto::kCookieSize) {
    return nullptr;
  }
  return txt;
}

}  // namespace

std::optional<crypto::Cookie> CookieEngine::extract_txt_cookie(
    const dns::Message& m) {
  for (const auto& rr : m.additional) {
    const dns::TxtRdata* txt = cookie_txt(rr);
    if (txt == nullptr) continue;
    const BytesView payload = txt->front();
    crypto::Cookie c{};
    std::copy(payload.begin(), payload.end(), c.begin());
    return c;
  }
  return std::nullopt;
}

void CookieEngine::attach_txt_cookie(dns::Message& m,
                                     const crypto::Cookie& cookie,
                                     std::uint32_t ttl) {
  // Built in place: the section keeps its capacity across messages, so a
  // reused message attaches without allocating. TTL 0 records still need
  // to reach the peer; the wire TTL field is what the local guard reads
  // for cache lifetime.
  dns::ResourceRecord& rr = m.additional.emplace_back();  // root, class IN
  rr.type = dns::RrType::TXT;
  rr.ttl = ttl;
  rr.rdata.emplace<dns::TxtRdata>().append(BytesView(cookie));
}

void CookieEngine::strip_txt_cookie(dns::Message& m) {
  std::erase_if(m.additional, [](const dns::ResourceRecord& rr) {
    return cookie_txt(rr) != nullptr;
  });
}

bool CookieEngine::is_zero_cookie(const crypto::Cookie& c) {
  for (auto b : c) {
    if (b != 0) return false;
  }
  return true;
}

}  // namespace dnsguard::guard
