// IPv4 addressing and the Packet's size and byte accounting.
#include <gtest/gtest.h>

#include "net/ipv4.h"
#include "net/packet.h"

namespace dnsguard::net {
namespace {

TEST(Ipv4Address, FormatAndParse) {
  Ipv4Address a(192, 168, 1, 42);
  EXPECT_EQ(a.to_string(), "192.168.1.42");
  auto parsed = Ipv4Address::parse("192.168.1.42");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1..2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 ").has_value());
}

TEST(Ipv4Address, SubnetMembership) {
  Ipv4Address base(10, 1, 2, 0);
  EXPECT_TRUE(Ipv4Address(10, 1, 2, 200).in_subnet(base, 24));
  EXPECT_FALSE(Ipv4Address(10, 1, 3, 1).in_subnet(base, 24));
  EXPECT_TRUE(Ipv4Address(10, 1, 3, 1).in_subnet(base, 16));
  EXPECT_TRUE(Ipv4Address(93, 4, 5, 6).in_subnet(base, 0));
  EXPECT_TRUE(base.in_subnet(base, 32));
  EXPECT_FALSE(Ipv4Address(10, 1, 2, 1).in_subnet(base, 32));
}

TEST(Packet, WireSizeAccountsHeaders) {
  Packet u = Packet::make_udp({Ipv4Address(1, 1, 1, 1), 1},
                              {Ipv4Address(2, 2, 2, 2), 2}, Bytes(30, 0));
  EXPECT_EQ(u.wire_size(), 20u + 8u + 30u);
  Packet t = Packet::make_tcp({Ipv4Address(1, 1, 1, 1), 1},
                              {Ipv4Address(2, 2, 2, 2), 2}, TcpFlags{}, 0, 0,
                              Bytes(30, 0));
  EXPECT_EQ(t.wire_size(), 20u + 20u + 30u);
}

TEST(Packet, FlatLayoutFitsIn48Bytes) {
  // Every delivery closure, lane ring slot and outbox entry holds a Packet
  // by value.
  EXPECT_LE(sizeof(Packet), 48u);
}

}  // namespace
}  // namespace dnsguard::net
