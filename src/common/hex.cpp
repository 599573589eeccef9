#include "common/hex.h"

namespace dnsguard {

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

char hex_digit(unsigned v) { return "0123456789abcdef"[v & 0x0f]; }

std::string hex_encode(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(hex_digit(b >> 4));
    out.push_back(hex_digit(b));
  }
  return out;
}

std::optional<Bytes> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

bool is_hex(std::string_view s) {
  for (char c : s) {
    if (hex_value(c) < 0) return false;
  }
  return true;
}

}  // namespace dnsguard
