// DNS message wire codec: headers, sections, RDATA types, referral
// classification, truncation and randomized round-trip properties.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dns/message.h"
#include "dns_reference_encoder.h"

namespace dnsguard::dns {
namespace {

/// Decodes m's encoding. Also checks that encoding against the reference
/// (map-based) compressor, byte for byte.
Message round_trip(const Message& m) {
  EXPECT_EQ(m.encode(), oracle::reference_encode(m));
  auto decoded = Message::decode(BytesView(m.encode()));
  EXPECT_TRUE(decoded.has_value());
  return decoded.value_or(Message{});
}

TEST(Message, QueryRoundTrip) {
  Message q = Message::query(0x1234, *DomainName::parse("www.foo.com"),
                             RrType::A, true);
  Message d = round_trip(q);
  EXPECT_EQ(d.header.id, 0x1234);
  EXPECT_FALSE(d.header.qr);
  EXPECT_TRUE(d.header.rd);
  ASSERT_EQ(d.questions.size(), 1u);
  EXPECT_EQ(d.questions[0].qname.to_string(), "www.foo.com.");
  EXPECT_EQ(d.questions[0].qtype, RrType::A);
  EXPECT_EQ(d, q);
}

TEST(Message, HeaderFlagsRoundTrip) {
  Message m;
  m.header.id = 77;
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = true;
  m.header.ra = true;
  m.header.rcode = Rcode::NxDomain;
  Message d = round_trip(m);
  EXPECT_EQ(d.header, m.header);
}

TEST(Message, ARecordRoundTrip) {
  Message m;
  m.header.qr = true;
  m.answers.push_back(ResourceRecord::a(*DomainName::parse("www.foo.com"),
                                        net::Ipv4Address(192, 0, 2, 80),
                                        3600));
  Message d = round_trip(m);
  ASSERT_EQ(d.answers.size(), 1u);
  EXPECT_EQ(std::get<ARdata>(d.answers[0].rdata).address,
            net::Ipv4Address(192, 0, 2, 80));
  EXPECT_EQ(d.answers[0].ttl, 3600u);
}

TEST(Message, NsAndSoaRoundTrip) {
  Message m;
  m.header.qr = true;
  m.authority.push_back(ResourceRecord::ns(*DomainName::parse("com"),
                                           *DomainName::parse("a.gtld.net"),
                                           172800));
  SoaRdata soa;
  soa.mname = *DomainName::parse("ns1.foo.com");
  soa.rname = *DomainName::parse("admin.foo.com");
  soa.serial = 2024070601;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 1209600;
  soa.minimum = 300;
  m.authority.push_back(
      ResourceRecord::soa(*DomainName::parse("foo.com"), soa, 3600));
  Message d = round_trip(m);
  ASSERT_EQ(d.authority.size(), 2u);
  EXPECT_EQ(std::get<NsRdata>(d.authority[0].rdata).nsdname.to_string(),
            "a.gtld.net.");
  const auto& dsoa = std::get<SoaRdata>(d.authority[1].rdata);
  EXPECT_EQ(dsoa.serial, 2024070601u);
  EXPECT_EQ(dsoa.minimum, 300u);
}

TEST(Message, TxtBinaryCookieRoundTrip) {
  // The modified-DNS cookie: a 16-byte binary TXT payload at the root
  // owner (Fig. 3(b)).
  Bytes cookie(16);
  for (int i = 0; i < 16; ++i) cookie[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i * 17);
  Message m;
  m.additional.push_back(ResourceRecord::txt(
      DomainName{}, TxtRdata::single(BytesView(cookie)), 0));
  Message d = round_trip(m);
  ASSERT_EQ(d.additional.size(), 1u);
  const auto& txt = std::get<TxtRdata>(d.additional[0].rdata);
  ASSERT_EQ(txt.string_count(), 1u);
  EXPECT_EQ(Bytes(txt.front().begin(), txt.front().end()), cookie);
}

TEST(Message, TxtMultipleStringsRoundTrip) {
  TxtRdata txt;
  ASSERT_TRUE(txt.append(BytesView(Bytes{'a', 'b'})));
  ASSERT_TRUE(txt.append(BytesView(Bytes{})));
  ASSERT_TRUE(txt.append(BytesView(Bytes(255, 'x'))));
  EXPECT_FALSE(txt.append(BytesView(Bytes(256, 'y'))));  // one length byte
  Message m;
  m.answers.push_back(
      ResourceRecord::txt(*DomainName::parse("t.example"), txt, 60));
  Message d = round_trip(m);
  const auto& got = std::get<TxtRdata>(d.answers[0].rdata);
  EXPECT_EQ(got.string_count(), 3u);
  EXPECT_EQ(got.string(0).size(), 2u);
  EXPECT_TRUE(got.string(1).empty());
  EXPECT_EQ(got.string(2).size(), 255u);
  EXPECT_TRUE(got.string(3).empty());
  EXPECT_EQ(got, txt);
}

TEST(Message, CnameRoundTrip) {
  Message m;
  m.answers.push_back(ResourceRecord::cname(*DomainName::parse("web.foo.com"),
                                            *DomainName::parse("www.foo.com"),
                                            120));
  Message d = round_trip(m);
  EXPECT_EQ(std::get<CnameRdata>(d.answers[0].rdata).target.to_string(),
            "www.foo.com.");
}

TEST(Message, UnknownTypePreservedAsRaw) {
  Message m;
  m.answers.push_back(ResourceRecord{*DomainName::parse("x.example"),
                                     static_cast<RrType>(99), RrClass::IN, 5,
                                     RawRdata::of(99, Bytes{1, 2, 3, 4})});
  Message d = round_trip(m);
  const auto& raw = std::get<RawRdata>(d.answers[0].rdata);
  const BytesView got = raw.data.bytes();
  EXPECT_EQ(Bytes(got.begin(), got.end()), (Bytes{1, 2, 3, 4}));
}

TEST(Message, ResponseToCopiesIdAndQuestion) {
  Message q = Message::query(42, *DomainName::parse("foo.com"), RrType::NS,
                             false);
  Message r = Message::response_to(q);
  EXPECT_TRUE(r.header.qr);
  EXPECT_EQ(r.header.id, 42);
  ASSERT_EQ(r.questions.size(), 1u);
  EXPECT_EQ(r.questions[0], q.questions[0]);
}

TEST(Message, ReferralClassification) {
  Message q = Message::query(1, *DomainName::parse("www.foo.com"), RrType::A,
                             false);
  Message r = Message::response_to(q);
  r.authority.push_back(ResourceRecord::ns(
      *DomainName::parse("com"), *DomainName::parse("a.gtld.net"), 3600));
  EXPECT_TRUE(r.is_referral());

  // Adding an answer makes it a non-referral.
  Message r2 = r;
  r2.answers.push_back(ResourceRecord::a(*DomainName::parse("www.foo.com"),
                                         net::Ipv4Address(1, 2, 3, 4), 60));
  EXPECT_FALSE(r2.is_referral());

  // SOA in authority (negative answer) is not a referral.
  Message r3 = Message::response_to(q);
  r3.authority.push_back(
      ResourceRecord::soa(*DomainName::parse("com"), SoaRdata{}, 60));
  EXPECT_FALSE(r3.is_referral());

  // Queries are never referrals.
  EXPECT_FALSE(q.is_referral());
}

TEST(Message, DecodeRejectsTrailingGarbage) {
  Message m = Message::query(9, *DomainName::parse("a.b"), RrType::A, false);
  Bytes wire = m.encode();
  wire.push_back(0);
  EXPECT_FALSE(Message::decode(BytesView(wire)).has_value());
}

TEST(Message, DecodeRejectsTruncatedHeader) {
  Bytes tiny{0, 1, 2};
  EXPECT_FALSE(Message::decode(BytesView(tiny)).has_value());
}

TEST(Message, DecodeRejectsCountMismatch) {
  Message m = Message::query(9, *DomainName::parse("a.b"), RrType::A, false);
  Bytes wire = m.encode();
  wire[5] = 3;  // claim 3 questions
  EXPECT_FALSE(Message::decode(BytesView(wire)).has_value());
}

TEST(Message, CompressionKeepsMessagesSmall) {
  // A referral with owner/NS names sharing suffixes must compress.
  Message m;
  m.header.qr = true;
  m.questions.push_back(
      Question{*DomainName::parse("www.foo.com"), RrType::A, RrClass::IN});
  m.authority.push_back(ResourceRecord::ns(*DomainName::parse("foo.com"),
                                           *DomainName::parse("ns1.foo.com"),
                                           3600));
  m.additional.push_back(ResourceRecord::a(*DomainName::parse("ns1.foo.com"),
                                           net::Ipv4Address(10, 0, 0, 3),
                                           3600));
  std::size_t compressed = m.encode().size();
  // Upper bound if nothing compressed: each foo.com suffix is 9 bytes.
  EXPECT_LT(compressed, 100u);
  EXPECT_EQ(round_trip(m), m);
}

// Randomized property: arbitrary well-formed messages survive the codec.
class MessageFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageFuzzRoundTrip, Identity) {
  dnsguard::Rng rng(GetParam());
  const char* names[] = {"a.example", "b.c.example", "x.y.z.w", "deep.a.b.c",
                         "example", "www.foo.com", "mail.foo.com"};
  Message m;
  m.header.id = static_cast<std::uint16_t>(rng.next());
  m.header.qr = rng.chance(0.5);
  m.header.aa = rng.chance(0.5);
  m.header.tc = rng.chance(0.2);
  m.header.rd = rng.chance(0.5);
  m.header.rcode = rng.chance(0.2) ? Rcode::NxDomain : Rcode::NoError;
  m.questions.push_back(Question{*DomainName::parse(names[rng.bounded(7)]),
                                 RrType::A, RrClass::IN});
  std::uint64_t n_rr = rng.bounded(6);
  for (std::uint64_t i = 0; i < n_rr; ++i) {
    auto owner = *DomainName::parse(names[rng.bounded(7)]);
    std::uint32_t ttl = static_cast<std::uint32_t>(rng.bounded(100000));
    ResourceRecord rr;
    switch (rng.bounded(4)) {
      case 0:
        rr = ResourceRecord::a(owner,
                               net::Ipv4Address(static_cast<std::uint32_t>(
                                   rng.next())),
                               ttl);
        break;
      case 1:
        rr = ResourceRecord::ns(owner, *DomainName::parse(names[rng.bounded(7)]),
                                ttl);
        break;
      case 2:
        rr = ResourceRecord::cname(owner,
                                   *DomainName::parse(names[rng.bounded(7)]),
                                   ttl);
        break;
      default: {
        Bytes payload(rng.bounded(40));
        for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
        rr = ResourceRecord::txt(owner, TxtRdata::single(BytesView(payload)),
                                 ttl);
        break;
      }
    }
    switch (rng.bounded(3)) {
      case 0: m.answers.push_back(std::move(rr)); break;
      case 1: m.authority.push_back(std::move(rr)); break;
      default: m.additional.push_back(std::move(rr)); break;
    }
  }
  EXPECT_EQ(round_trip(m), m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzzRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 32));

// Malformed-input robustness: random byte strings never crash the decoder.
class MessageFuzzDecode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageFuzzDecode, NeverCrashes) {
  dnsguard::Rng rng(GetParam() * 977 + 1);
  Bytes junk(rng.bounded(200));
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
  (void)Message::decode(BytesView(junk));  // must not crash or hang
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzzDecode,
                         ::testing::Range<std::uint64_t>(0, 64));

}  // namespace
}  // namespace dnsguard::dns
