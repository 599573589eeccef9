// DNS wire-format edge cases beyond the basic round-trips: chained
// compression pointers, compression-offset limits, OPT records, maximal
// messages, and adversarial structures.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "common/rng.h"
#include "dns/message.h"
#include "dns_reference_encoder.h"

namespace dnsguard::dns {
namespace {

TEST(CompressionEdge, PointerToPointerChainDecodes) {
  // Hand-craft: name A = "foo.com" at offset 0; name B = pointer to A;
  // name C = "www" + pointer to B's target. Decoders must follow chains.
  ByteWriter w;
  // offset 0: foo.com
  w.u8(3);
  w.raw(std::string_view("foo"));
  w.u8(3);
  w.raw(std::string_view("com"));
  w.u8(0);
  std::size_t b_at = w.size();  // offset 9: pointer -> 0
  w.u16(0xc000);
  std::size_t c_at = w.size();  // offset 11: www + pointer -> 9... a
  w.u8(3);                      // pointer target must be < current pos:
  w.raw(std::string_view("www"));
  w.u16(0xc000 | static_cast<std::uint16_t>(b_at));

  Cursor r(w.view());
  r.skip(c_at);
  DomainName name;
  ASSERT_TRUE(read_name(r, name));
  EXPECT_EQ(name.to_string(), "www.foo.com.");
}

TEST(CompressionEdge, MaxJumpBudgetEnforced) {
  // A long chain of backward pointers: p0 = name, p1 -> p0, p2 -> p1 ...
  // More than 32 jumps must be rejected (loop-protection budget).
  ByteWriter w;
  w.u8(1);
  w.raw(std::string_view("x"));
  w.u8(0);  // offset 0: "x."
  std::vector<std::size_t> offsets{0};
  for (int i = 0; i < 40; ++i) {
    offsets.push_back(w.size());
    w.u16(static_cast<std::uint16_t>(0xc000 | offsets[static_cast<std::size_t>(i)]));
  }
  Cursor r(w.view());
  r.skip(offsets.back());
  DomainName name;
  EXPECT_FALSE(read_name(r, name));
}

TEST(CompressionEdge, CompressorSkipsUnreachableOffsets) {
  // Names written beyond offset 0x3fff cannot be pointer targets; the
  // compressor must fall back to literal labels (and decode must work).
  ByteWriter w;
  ByteWriter ref;
  NameCompressor c;
  oracle::ReferenceCompressor rc;
  Bytes padding(0x4000, 0);
  w.raw(BytesView(padding));
  ref.raw(BytesView(padding));
  auto name = *DomainName::parse("deep.example.com");
  c.write(w, name);   // at offset 0x4000: recorded but unreachable
  rc.write(ref, name);
  std::size_t second_at = w.size();
  c.write(w, name);   // must NOT emit a pointer to 0x4000
  rc.write(ref, name);
  EXPECT_EQ(w.bytes(), ref.bytes());
  Cursor r(w.view());
  r.skip(second_at);
  DomainName decoded;
  ASSERT_TRUE(read_name(r, decoded));
  EXPECT_EQ(decoded, name);
}

TEST(CompressionEdge, CaseInsensitiveSuffixSharing) {
  // "WWW.FOO.COM" then "mail.foo.com": the compressor matches suffixes
  // case-insensitively, so the suffix is shared.
  ByteWriter w;
  NameCompressor c;
  c.write(w, *DomainName::parse("WWW.FOO.COM"));
  std::size_t first = w.size();
  c.write(w, *DomainName::parse("mail.foo.com"));
  EXPECT_EQ(w.size() - first, 5u + 2u);  // "mail" + pointer

  ByteWriter ref;
  oracle::ReferenceCompressor rc;
  rc.write(ref, *DomainName::parse("WWW.FOO.COM"));
  rc.write(ref, *DomainName::parse("mail.foo.com"));
  EXPECT_EQ(w.bytes(), ref.bytes());
}

TEST(CompressionEdge, DottedLabelRoundTrips) {
  // A response whose question is a.b.c (three labels) and whose answer
  // owner is the two labels "a.b" and "c". Dotted suffix text cannot tell
  // them apart; the wire form can, so the owner must not be compressed
  // into a pointer to the question.
  const Bytes wire{0x00, 0x01, 0x84, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
                   0x00, 0x00, 0x00, 0x01, 0x61, 0x01, 0x62, 0x01, 0x63,
                   0x00, 0x00, 0x01, 0x00, 0x01, 0x03, 0x61, 0x2e, 0x62,
                   0x01, 0x63, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00,
                   0x00, 0x3c, 0x00, 0x04, 0xc0, 0x00, 0x02, 0x01};
  ASSERT_EQ(wire.size(), 44u);
  auto m = Message::decode(BytesView(wire));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->questions[0].qname.label_count(), 3u);
  EXPECT_EQ(m->answers[0].name.label_count(), 2u);
  EXPECT_NE(m->answers[0].name, m->questions[0].qname);
  const Bytes encoded = m->encode();
  EXPECT_EQ(encoded, oracle::reference_encode(*m));
  auto d = Message::decode(BytesView(encoded));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->answers[0].name.label_count(), 2u);
  EXPECT_EQ(*d, *m);
}

TEST(CompressionEdge, OracleAgreesOnMixedCaseAndMaximalNames) {
  // 63 + 63 + 63 + 61 label bytes and 4 length bytes: 255 wire bytes with
  // the terminating zero, the largest legal name.
  const std::string label63(63, 'a');
  const std::string maximal = label63 + "." + std::string(63, 'B') + "." +
                              label63 + "." + std::string(61, 'c');
  Message m;
  m.header.qr = true;
  m.questions.push_back(
      Question{*DomainName::parse("WWW.Example.COM"), RrType::A, RrClass::IN});
  m.answers.push_back(ResourceRecord::a(*DomainName::parse("www.example.com"),
                                        net::Ipv4Address(1, 2, 3, 4), 60));
  m.answers.push_back(ResourceRecord::a(*DomainName::parse("Mail.EXAMPLE.com"),
                                        net::Ipv4Address(1, 2, 3, 5), 60));
  const DomainName big = *DomainName::parse(maximal);
  ASSERT_EQ(big.wire_length(), kMaxNameLength);
  m.answers.push_back(ResourceRecord::a(big, net::Ipv4Address(1, 2, 3, 6), 60));
  m.answers.push_back(ResourceRecord::a(*DomainName::parse(maximal.substr(64)),
                                        net::Ipv4Address(1, 2, 3, 7), 60));
  std::string upper = maximal;
  for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
  m.authority.push_back(ResourceRecord::ns(*DomainName::parse(upper),
                                           *DomainName::parse("ns.example.com"),
                                           60));
  const Bytes encoded = m.encode();
  EXPECT_EQ(encoded, oracle::reference_encode(m));
  auto d = Message::decode(BytesView(encoded));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, m);
}

TEST(CompressionEdge, FullCompressorStaysValid) {
  // More distinct suffixes than the compressor remembers, each owner
  // written twice. The second copies of the owners it could not record
  // go out literally, so the message is longer than the reference
  // encoding but still decodes to the same records.
  Message m;
  m.header.qr = true;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < NameCompressor::kCapacity + 50; ++i) {
      m.answers.push_back(ResourceRecord::a(
          *DomainName::parse("n" + std::to_string(i) + ".example"),
          net::Ipv4Address(static_cast<std::uint32_t>(i)), 60));
    }
  }
  const Bytes encoded = m.encode();
  EXPECT_GT(encoded.size(), oracle::reference_encode(m).size());
  auto d = Message::decode(BytesView(encoded));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, m);
}

TEST(OptEdge, OptRecordRoundTripsWithPayloadSize) {
  Message m;
  m.additional.push_back(ResourceRecord{DomainName{}, RrType::OPT,
                                        RrClass::IN, 0, OptRdata{4096}});
  auto d = Message::decode(BytesView(m.encode()));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->additional.size(), 1u);
  EXPECT_EQ(d->additional[0].type, RrType::OPT);
  EXPECT_EQ(std::get<OptRdata>(d->additional[0].rdata).udp_payload_size,
            4096);
}

TEST(MessageEdge, MaximalLabelAndNameSurvive) {
  std::string label63(63, 'a');
  // 63+63+63+61 + dots = 255 wire bytes exactly (4 length bytes + 250
  // label bytes + root).
  std::string name = label63 + "." + label63 + "." + label63 + "." +
                     std::string(59, 'b');
  auto qname = DomainName::parse(name);
  ASSERT_TRUE(qname.has_value());
  Message q = Message::query(1, *qname, RrType::A, false);
  auto d = Message::decode(BytesView(q.encode()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->questions[0].qname, *qname);
}

TEST(MessageEdge, ManyRecordsRoundTrip) {
  Message m;
  m.header.qr = true;
  for (int i = 0; i < 200; ++i) {
    m.answers.push_back(ResourceRecord::a(
        *DomainName::parse("n" + std::to_string(i) + ".example"),
        net::Ipv4Address(static_cast<std::uint32_t>(i)), 60));
  }
  EXPECT_EQ(m.encode(), oracle::reference_encode(m));  // 201 suffixes fit
  auto d = Message::decode(BytesView(m.encode()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->answers.size(), 200u);
  EXPECT_EQ(*d, m);
}

TEST(MessageEdge, DecodeIntoReleasesOversizeSections) {
  // A reused message keeps section storage for small messages only: a
  // large one cannot pin its records' memory in a long-lived decode
  // target.
  Message big;
  big.header.qr = true;
  for (int i = 0; i < 200; ++i) {
    big.answers.push_back(ResourceRecord::a(
        *DomainName::parse("n" + std::to_string(i) + ".example"),
        net::Ipv4Address(static_cast<std::uint32_t>(i)), 60));
  }
  const Message small =
      Message::query(1, *DomainName::parse("a.example"), RrType::A, false);
  Message m;
  ASSERT_TRUE(Message::decode_into(BytesView(big.encode()), m));
  EXPECT_EQ(m, big);
  ASSERT_TRUE(Message::decode_into(BytesView(small.encode()), m));
  EXPECT_EQ(m, small);
  EXPECT_LE(m.answers.capacity(), 64u);
}

TEST(MessageEdge, EmptyTxtStringAllowed) {
  Message m;
  TxtRdata txt;
  ASSERT_TRUE(txt.append(BytesView(Bytes{})));
  m.answers.push_back(ResourceRecord::txt(*DomainName::parse("e.x"),
                                          std::move(txt), 1));
  auto d = Message::decode(BytesView(m.encode()));
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(std::get<TxtRdata>(d->answers[0].rdata).string_count(), 1u);
  EXPECT_TRUE(std::get<TxtRdata>(d->answers[0].rdata).front().empty());
}

/// A message with one answer record of type `type` at the root owner whose
/// RDATA is `rdata`, built byte by byte (the codec's own types cannot hold
/// more than 512 RDATA bytes).
Bytes one_record_wire(std::uint16_t type, BytesView rdata) {
  ByteWriter w;
  for (std::uint16_t v : {0, 0x8000, 0, 1, 0, 0}) w.u16(v);  // header
  w.u8(0);  // root owner
  w.u16(type);
  w.u16(static_cast<std::uint16_t>(RrClass::IN));
  w.u32(60);
  w.u16(static_cast<std::uint16_t>(rdata.size()));
  w.raw(rdata);
  return std::move(w).take();
}

TEST(MessageEdge, TxtAndRawRdataAtCapacityRoundTrip) {
  TxtRdata txt;
  ASSERT_TRUE(txt.append(BytesView(Bytes(255, 'a'))));
  ASSERT_TRUE(txt.append(BytesView(Bytes(255, 'b'))));
  EXPECT_EQ(txt.bytes().size(), RdataBytes::kCapacity);
  EXPECT_FALSE(txt.append(BytesView(Bytes{})));  // one byte more
  Message m;
  m.answers.push_back(ResourceRecord::txt(DomainName{}, txt, 60));
  m.answers.push_back(ResourceRecord{
      DomainName{}, static_cast<RrType>(99), RrClass::IN, 60,
      RawRdata::of(99, Bytes(RdataBytes::kCapacity, 0x5c))});
  auto d = Message::decode(BytesView(m.encode()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, m);
  EXPECT_EQ(std::get<TxtRdata>(d->answers[0].rdata).string_count(), 2u);
  EXPECT_EQ(std::get<RawRdata>(d->answers[1].rdata).data.size(),
            RdataBytes::kCapacity);
}

TEST(MessageEdge, RdataOverCapacityFailsDecode) {
  // 512 bytes decode; 513 do not, for TXT (two 255-byte strings plus an
  // empty one) and for an unknown type alike.
  Bytes txt;
  for (char c : {'a', 'b'}) {
    txt.push_back(255);
    txt.insert(txt.end(), 255, static_cast<std::uint8_t>(c));
  }
  ASSERT_EQ(txt.size(), RdataBytes::kCapacity);
  const auto txt_type = static_cast<std::uint16_t>(RrType::TXT);
  EXPECT_TRUE(
      Message::decode(BytesView(one_record_wire(txt_type, txt))).has_value());
  txt.push_back(0);
  EXPECT_FALSE(
      Message::decode(BytesView(one_record_wire(txt_type, txt))).has_value());

  Bytes raw(RdataBytes::kCapacity, 0x5c);
  EXPECT_TRUE(Message::decode(BytesView(one_record_wire(99, raw))).has_value());
  raw.push_back(0x5c);
  EXPECT_FALSE(
      Message::decode(BytesView(one_record_wire(99, raw))).has_value());
}

TEST(MessageEdge, TxtStringOverrunningRdataRejected) {
  // The last string's length byte claims more bytes than the RDATA holds.
  const Bytes txt{3, 'a', 'b', 'c', 4, 'd'};
  EXPECT_FALSE(Message::decode(BytesView(one_record_wire(
                                   static_cast<std::uint16_t>(RrType::TXT),
                                   txt)))
                   .has_value());
}

TEST(MessageEdge, RdlengthLyingShortRejected) {
  // An A record whose RDLENGTH claims 3 bytes.
  Message m;
  m.answers.push_back(ResourceRecord::a(*DomainName::parse("a.b"),
                                        net::Ipv4Address(1, 2, 3, 4), 1));
  Bytes wire = m.encode();
  // Locate the RDLENGTH (last 6 bytes are rdlength+rdata for the A rec).
  wire[wire.size() - 5] = 3;  // low byte of RDLENGTH 4 -> 3
  EXPECT_FALSE(Message::decode(BytesView(wire)).has_value());
}

TEST(MessageEdge, NsRdataWithTrailingJunkRejected) {
  // NS RDATA must be exactly one name; append junk inside RDLENGTH.
  Message m;
  m.authority.push_back(ResourceRecord::ns(*DomainName::parse("com"),
                                           *DomainName::parse("ns.com"), 1));
  Bytes wire = m.encode();
  // Easier: craft a raw record type NS with oversized RDATA.
  Message m2;
  m2.authority.push_back(ResourceRecord{
      *DomainName::parse("com"), RrType::NS, RrClass::IN, 1,
      RawRdata::of(static_cast<std::uint16_t>(RrType::NS), Bytes{0, 0xff})});
  // RawRdata with type NS encodes junk bytes as NS RDATA.
  EXPECT_FALSE(Message::decode(BytesView(m2.encode())).has_value());
}

TEST(MessageEdge, QueryWithZeroQuestionsDecodes) {
  Message m;  // e.g. some keepalive-style packets
  auto d = Message::decode(BytesView(m.encode()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->question(), nullptr);
}

// Property: decode(encode(m)) == m for messages stuffed with every RDATA
// type at once.
class KitchenSink : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KitchenSink, FullMessageRoundTrip) {
  dnsguard::Rng rng(GetParam());
  Message m;
  m.header.id = static_cast<std::uint16_t>(rng.next());
  m.header.qr = true;
  m.header.aa = true;
  m.questions.push_back(Question{*DomainName::parse("www.foo.com"),
                                 RrType::A, RrClass::IN});
  m.answers.push_back(ResourceRecord::a(*DomainName::parse("www.foo.com"),
                                        net::Ipv4Address(1, 2, 3, 4), 60));
  m.answers.push_back(ResourceRecord::cname(
      *DomainName::parse("alias.foo.com"), *DomainName::parse("www.foo.com"),
      60));
  SoaRdata soa;
  soa.mname = *DomainName::parse("ns1.foo.com");
  soa.rname = *DomainName::parse("admin.foo.com");
  soa.serial = static_cast<std::uint32_t>(rng.next());
  m.authority.push_back(ResourceRecord::soa(*DomainName::parse("foo.com"),
                                            std::move(soa), 300));
  m.authority.push_back(ResourceRecord::ns(*DomainName::parse("foo.com"),
                                           *DomainName::parse("ns1.foo.com"),
                                           300));
  Bytes cookie(16);
  for (auto& b : cookie) b = static_cast<std::uint8_t>(rng.next());
  m.additional.push_back(ResourceRecord::txt(
      DomainName{}, TxtRdata::single(BytesView(cookie)), 0));
  m.additional.push_back(ResourceRecord{DomainName{}, RrType::OPT,
                                        RrClass::IN, 0, OptRdata{1232}});
  EXPECT_EQ(m.encode(), oracle::reference_encode(m));
  auto d = Message::decode(BytesView(m.encode()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KitchenSink,
                         ::testing::Range<std::uint64_t>(0, 16));

}  // namespace
}  // namespace dnsguard::dns
