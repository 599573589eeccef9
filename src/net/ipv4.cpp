#include "net/ipv4.h"

#include <cstdio>

namespace dnsguard::net {

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (addr_ >> 24) & 0xff,
                (addr_ >> 16) & 0xff, (addr_ >> 8) & 0xff, addr_ & 0xff);
  return buf;
}

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view s) {
  std::uint32_t parts[4];
  int part = 0;
  std::uint32_t cur = 0;
  bool have_digit = false;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<std::uint32_t>(c - '0');
      if (cur > 255) return std::nullopt;
      have_digit = true;
    } else if (c == '.') {
      if (!have_digit || part >= 3) return std::nullopt;
      parts[part++] = cur;
      cur = 0;
      have_digit = false;
    } else {
      return std::nullopt;
    }
  }
  if (!have_digit || part != 3) return std::nullopt;
  parts[3] = cur;
  return Ipv4Address(static_cast<std::uint8_t>(parts[0]),
                     static_cast<std::uint8_t>(parts[1]),
                     static_cast<std::uint8_t>(parts[2]),
                     static_cast<std::uint8_t>(parts[3]));
}

}  // namespace dnsguard::net
