// IPv4 address and socket-address value types.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace dnsguard::net {

/// An IPv4 address held in host byte order.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t host_order)
      : addr_(host_order) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : addr_((static_cast<std::uint32_t>(a) << 24) |
              (static_cast<std::uint32_t>(b) << 16) |
              (static_cast<std::uint32_t>(c) << 8) | d) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return addr_; }
  [[nodiscard]] std::string to_string() const;

  /// Parses dotted-quad "a.b.c.d"; nullopt on malformed input.
  [[nodiscard]] static std::optional<Ipv4Address> parse(std::string_view s);

  /// True iff this address lies inside `prefix`/`prefix_len`.
  [[nodiscard]] constexpr bool in_subnet(Ipv4Address prefix,
                                         int prefix_len) const {
    if (prefix_len <= 0) return true;
    if (prefix_len >= 32) return addr_ == prefix.addr_;
    std::uint32_t mask = ~0u << (32 - prefix_len);
    return (addr_ & mask) == (prefix.addr_ & mask);
  }

  constexpr auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t addr_ = 0;
};

/// (address, port) pair.
struct SocketAddr {
  Ipv4Address ip;
  std::uint16_t port = 0;

  constexpr auto operator<=>(const SocketAddr&) const = default;
};

inline constexpr std::uint16_t kDnsPort = 53;

}  // namespace dnsguard::net

template <>
struct std::hash<dnsguard::net::Ipv4Address> {
  std::size_t operator()(const dnsguard::net::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<dnsguard::net::SocketAddr> {
  std::size_t operator()(const dnsguard::net::SocketAddr& a) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(a.ip.value()) << 16) | a.port);
  }
};
