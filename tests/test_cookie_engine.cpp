// The guard's cookie encodings: NS-name labels, fabricated addresses,
// TXT records (§III.E).
#include <gtest/gtest.h>

#include <vector>

#include "common/hex.h"
#include "guard/cookie_engine.h"

namespace dnsguard::guard {
namespace {

using net::Ipv4Address;

TEST(CookieLabel, EncodesPrefixHexAndRestore) {
  CookieEngine e(1);
  auto label = e.make_cookie_label(Ipv4Address(10, 0, 1, 1), "com");
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->view().substr(0, 2), "PR");
  EXPECT_EQ(label->size(), 2u + 8u + 3u);
  EXPECT_TRUE(dnsguard::is_hex(label->view().substr(2, 8)));
  EXPECT_EQ(label->view().substr(10), "com");
}

TEST(CookieLabel, ParsesBack) {
  CookieEngine e(1);
  auto label = e.make_cookie_label(Ipv4Address(10, 0, 1, 1), "foo");
  auto parsed = CookieEngine::parse_cookie_label(*label);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->restore_label, "foo");
  EXPECT_TRUE(e.verify_prefix(Ipv4Address(10, 0, 1, 1),
                              parsed->cookie_prefix));
  EXPECT_FALSE(e.verify_prefix(Ipv4Address(10, 0, 1, 2),
                               parsed->cookie_prefix));
}

TEST(CookieLabel, ParseRejectsNonCookieLabels) {
  EXPECT_FALSE(CookieEngine::parse_cookie_label("www").has_value());
  EXPECT_FALSE(CookieEngine::parse_cookie_label("PRshort").has_value());
  EXPECT_FALSE(CookieEngine::parse_cookie_label("PRzzzzzzzzcom").has_value());
  EXPECT_FALSE(CookieEngine::parse_cookie_label("XXa1b2c3d4com").has_value());
  // Empty restore label is structurally fine.
  EXPECT_TRUE(CookieEngine::parse_cookie_label("PRa1b2c3d4").has_value());
}

TEST(CookieLabel, RespectsLabelLengthLimit) {
  CookieEngine e(1);
  // 2 + 8 + 53 = 63: fits exactly.
  EXPECT_TRUE(
      e.make_cookie_label(Ipv4Address(1, 2, 3, 4), std::string(53, 'a'))
          .has_value());
  // 2 + 8 + 54 = 64: too long for one label.
  EXPECT_FALSE(
      e.make_cookie_label(Ipv4Address(1, 2, 3, 4), std::string(54, 'a'))
          .has_value());
}

TEST(CookieLabel, DistinctPerRequester) {
  CookieEngine e(1);
  auto a = e.make_cookie_label(Ipv4Address(10, 0, 1, 1), "com");
  auto b = e.make_cookie_label(Ipv4Address(10, 0, 1, 2), "com");
  EXPECT_NE(*a, *b);
}

TEST(CookieAddress, InRangeAndVerifiable) {
  CookieEngine e(7);
  Ipv4Address base(10, 7, 7, 0);
  for (std::uint32_t ip = 1; ip < 64; ++ip) {
    Ipv4Address requester(0x0a000000u + ip);
    Ipv4Address c2 = e.make_cookie_address(requester, base, 250);
    EXPECT_GT(c2.value(), base.value());
    EXPECT_LE(c2.value(), base.value() + 250);
    EXPECT_TRUE(e.verify_cookie_address(requester, c2, base, 250));
  }
}

TEST(CookieAddress, WrongAddressRejected) {
  CookieEngine e(7);
  Ipv4Address base(10, 7, 7, 0);
  Ipv4Address requester(10, 0, 1, 1);
  Ipv4Address c2 = e.make_cookie_address(requester, base, 250);
  Ipv4Address wrong(c2.value() == base.value() + 1 ? base.value() + 2
                                                   : base.value() + 1);
  EXPECT_FALSE(e.verify_cookie_address(requester, wrong, base, 250));
  // Out-of-range offsets always fail.
  EXPECT_FALSE(e.verify_cookie_address(requester, base, base, 250));
  EXPECT_FALSE(e.verify_cookie_address(
      requester, Ipv4Address(base.value() + 251), base, 250));
}

TEST(CookieAddress, GuessingSucceedsAtOneOverRy) {
  // §III.G: spraying the subnet penetrates with probability 1/R_y.
  CookieEngine e(7);
  Ipv4Address base(10, 7, 7, 0);
  const std::uint32_t r_y = 250;
  int hits = 0;
  const int requesters = 500;
  for (int i = 0; i < requesters; ++i) {
    Ipv4Address victim(0x0a000000u + static_cast<std::uint32_t>(i));
    for (std::uint32_t y = 0; y < r_y; ++y) {
      if (e.verify_cookie_address(victim, Ipv4Address(base.value() + 1 + y),
                                  base, r_y)) {
        hits++;
      }
    }
  }
  // Exactly one offset per victim is valid.
  EXPECT_EQ(hits, requesters);
}

TEST(TxtCookie, AttachExtractStrip) {
  CookieEngine e(5);
  dns::Message m = dns::Message::query(
      1, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false);
  EXPECT_FALSE(CookieEngine::extract_txt_cookie(m).has_value());

  crypto::Cookie c = e.mint(Ipv4Address(10, 0, 1, 1));
  CookieEngine::attach_txt_cookie(m, c, 3600);
  auto extracted = CookieEngine::extract_txt_cookie(m);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(*extracted, c);

  // Survives the wire.
  auto decoded = dns::Message::decode(BytesView(m.encode()));
  ASSERT_TRUE(decoded.has_value());
  auto wire_cookie = CookieEngine::extract_txt_cookie(*decoded);
  ASSERT_TRUE(wire_cookie.has_value());
  EXPECT_EQ(*wire_cookie, c);

  CookieEngine::strip_txt_cookie(m);
  EXPECT_FALSE(CookieEngine::extract_txt_cookie(m).has_value());
  EXPECT_TRUE(m.additional.empty());
}

TEST(TxtCookie, ZeroCookieDetected) {
  crypto::Cookie zero{};
  EXPECT_TRUE(CookieEngine::is_zero_cookie(zero));
  zero[3] = 1;
  EXPECT_FALSE(CookieEngine::is_zero_cookie(zero));
}

TEST(TxtCookie, StripLeavesOtherTxtRecordsAlone) {
  dns::Message m;
  m.additional.push_back(dns::ResourceRecord::txt(
      *dns::DomainName::parse("info.example"),
      dns::TxtRdata::single(BytesView(Bytes{'h', 'i'})), 60));
  CookieEngine::attach_txt_cookie(m, crypto::Cookie{}, 0);
  CookieEngine::strip_txt_cookie(m);
  ASSERT_EQ(m.additional.size(), 1u);
  EXPECT_EQ(m.additional[0].name.to_string(), "info.example.");
}

TEST(TxtCookie, MessageSizeSymmetry) {
  // §III.D: cookie request (msg 2) and reply (msg 3) are the same size,
  // so the exchange amplifies nothing.
  CookieEngine e(5);
  dns::Message req = dns::Message::query(
      9, *dns::DomainName::parse("www.foo.com"), dns::RrType::A, false);
  CookieEngine::attach_txt_cookie(req, crypto::Cookie{}, 0);

  dns::Message resp = dns::Message::response_to(req);
  // The reply's cookie replaces the request's zero cookie.
  CookieEngine::attach_txt_cookie(resp, e.mint(Ipv4Address(1, 2, 3, 4)), 0);

  EXPECT_EQ(req.encode().size(), resp.encode().size());
}

TEST(CookieLabel, ParsesExactly63ByteLabel) {
  CookieEngine e(1);
  // 2 + 8 + 53 = 63: the maximum legal DNS label.
  std::string restore(53, 'a');
  auto label = e.make_cookie_label(Ipv4Address(1, 2, 3, 4), restore);
  ASSERT_TRUE(label.has_value());
  ASSERT_EQ(label->size(), 63u);
  auto parsed = CookieEngine::parse_cookie_label(*label);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->restore_label, restore);
  EXPECT_TRUE(e.verify_prefix(Ipv4Address(1, 2, 3, 4),
                              parsed->cookie_prefix));
}

TEST(CookieLabel, ParseAcceptsUppercaseHex) {
  // Resolvers may 0x20-randomize or uppercase qnames; the hex cookie value
  // must decode case-insensitively.
  auto lower = CookieEngine::parse_cookie_label("PRa1b2c3d4com");
  auto upper = CookieEngine::parse_cookie_label("PRA1B2C3D4com");
  ASSERT_TRUE(lower.has_value());
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(lower->cookie_prefix, upper->cookie_prefix);
  EXPECT_EQ(upper->cookie_prefix, 0xa1b2c3d4u);
}

TEST(CookieLabel, CookieShapedRestoreLabelRoundTrips) {
  // A restore label that is itself cookie-shaped ("PR" + 8 hex) must come
  // back intact: the parser consumes exactly one cookie layer.
  CookieEngine e(1);
  const std::string inner = "PRdeadbeef";
  auto label = e.make_cookie_label(Ipv4Address(9, 9, 9, 9), inner);
  ASSERT_TRUE(label.has_value());
  auto parsed = CookieEngine::parse_cookie_label(*label);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->restore_label, inner);
  // The restored label would parse as a cookie again (it is cookie-shaped),
  // but with the inner hex value — one layer at a time.
  auto inner_parsed = CookieEngine::parse_cookie_label(parsed->restore_label);
  ASSERT_TRUE(inner_parsed.has_value());
  EXPECT_EQ(inner_parsed->cookie_prefix, 0xdeadbeefu);
  EXPECT_TRUE(inner_parsed->restore_label.empty());
}

TEST(Rotation, EngineAcceptsPreviousGeneration) {
  CookieEngine e(11);
  Ipv4Address ip(10, 0, 1, 1);
  auto label = e.make_cookie_label(ip, "com");
  auto parsed = CookieEngine::parse_cookie_label(*label);
  e.rotate(12);
  EXPECT_TRUE(e.verify_prefix(ip, parsed->cookie_prefix));
  e.rotate(13);
  EXPECT_FALSE(e.verify_prefix(ip, parsed->cookie_prefix));
}

TEST(Rotation, CookieAddressSurvivesOneRotationButNotTwo) {
  // Regression: verify_cookie_address only recomputed under the current
  // key, so a weekly rotation dropped every legitimate LRS follow-up query
  // addressed to a pre-rotation cookie address as spoofed.
  CookieEngine e(11);
  Ipv4Address base(10, 7, 7, 0);
  const std::uint32_t r_y = 250;
  const int n = 100;
  std::vector<Ipv4Address> addrs;
  for (int i = 0; i < n; ++i) {
    addrs.push_back(e.make_cookie_address(
        Ipv4Address(0x0a000100u + static_cast<std::uint32_t>(i)), base, r_y));
  }

  e.rotate(12);
  int after_one = 0;
  for (int i = 0; i < n; ++i) {
    if (e.verify_cookie_address(
            Ipv4Address(0x0a000100u + static_cast<std::uint32_t>(i)),
            addrs[i], base, r_y)) {
      after_one++;
    }
  }
  EXPECT_EQ(after_one, n);  // the old code dropped all of these

  // Two rotations age the address out; only mod-R_y collisions with the
  // two live generations may still pass (~2/R_y per requester).
  e.rotate(13);
  int after_two = 0;
  for (int i = 0; i < n; ++i) {
    if (e.verify_cookie_address(
            Ipv4Address(0x0a000100u + static_cast<std::uint32_t>(i)),
            addrs[i], base, r_y)) {
      after_two++;
    }
  }
  EXPECT_LT(after_two, n / 5);
}

TEST(CookieAddress, DegenerateRyMintVerifySymmetry) {
  // Regression: mint clamps r_y == 0 to 1, and caps huge divisors so
  // base + 1 + y cannot wrap the 32-bit address space. The verify path
  // must clamp identically for every degenerate R_y, across rotation,
  // or each legitimate follow-up query under that config is dropped.
  CookieEngine e(31);
  Ipv4Address base(10, 7, 7, 0);
  const std::uint32_t max_u32 = 0xffffffffu;
  for (std::uint32_t r_y : {0u, 1u, 2u, 250u, max_u32}) {
    CookieEngine fresh(31);
    for (std::uint32_t i = 0; i < 16; ++i) {
      Ipv4Address requester(0x0a000200u + i);
      Ipv4Address c2 = fresh.make_cookie_address(requester, base, r_y);
      EXPECT_GT(c2.value(), base.value()) << "r_y=" << r_y;
      EXPECT_TRUE(fresh.verify_cookie_address(requester, c2, base, r_y))
          << "r_y=" << r_y << " i=" << i;
    }
    // Pre-rotation addresses still verify afterwards, same divisor math.
    Ipv4Address requester(10, 0, 3, 9);
    Ipv4Address c2 = fresh.make_cookie_address(requester, base, r_y);
    fresh.rotate(32);
    EXPECT_TRUE(fresh.verify_cookie_address(requester, c2, base, r_y))
        << "r_y=" << r_y;
  }
  // A subnet base near the top of the address space forces the cap even
  // for moderate R_y values.
  Ipv4Address high_base(0xfffffff0u);
  Ipv4Address requester(10, 0, 4, 4);
  Ipv4Address c2 = e.make_cookie_address(requester, high_base, 250);
  EXPECT_GT(c2.value(), high_base.value()) << "mint must not wrap";
  EXPECT_TRUE(e.verify_cookie_address(requester, c2, high_base, 250));
}

TEST(CookieAddress, RetiredAddressClassifiedStaleOnFailure) {
  CookieEngine e(47);
  Ipv4Address base(10, 7, 7, 0);
  Ipv4Address requester(10, 0, 5, 5);
  const std::uint32_t r_y = 250;
  Ipv4Address old_addr = e.make_cookie_address(requester, base, r_y);
  e.rotate(48);
  e.rotate(49);
  crypto::VerifyResult vr =
      e.verify_cookie_address_ex(requester, old_addr, base, r_y);
  // The offset could collide with one of the two live generations
  // (probability ~2/R_y); in the common case it fails and must be
  // classified stale, never accepted as current.
  if (!vr.ok) {
    EXPECT_TRUE(vr.stale);
  }
  // Out-of-range destinations are forgeries, not stale clients.
  crypto::VerifyResult out_of_range =
      e.verify_cookie_address_ex(requester, base, base, r_y);
  EXPECT_FALSE(out_of_range.ok);
  EXPECT_FALSE(out_of_range.stale);
}

}  // namespace
}  // namespace dnsguard::guard
