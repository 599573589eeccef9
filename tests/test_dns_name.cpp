// Domain name parsing, limits, relations and wire codec incl. compression.
#include <gtest/gtest.h>

#include <string_view>
#include <type_traits>

#include "dns/name.h"

namespace dnsguard::dns {
namespace {

TEST(DomainName, ParseBasics) {
  auto n = DomainName::parse("www.foo.com");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->label_count(), 3u);
  EXPECT_EQ(n->to_string(), "www.foo.com.");
  EXPECT_EQ(n->first_label(), "www");
}

TEST(DomainName, TrailingDotOptional) {
  EXPECT_EQ(DomainName::parse("foo.com")->to_string(),
            DomainName::parse("foo.com.")->to_string());
}

TEST(DomainName, RootName) {
  auto root = DomainName::parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(root->wire_length(), 1u);
}

TEST(DomainName, RejectsEmptyAndBadLabels) {
  EXPECT_FALSE(DomainName::parse("").has_value());
  EXPECT_FALSE(DomainName::parse("..").has_value());
  EXPECT_FALSE(DomainName::parse("a..b").has_value());
  EXPECT_FALSE(DomainName::parse(std::string(64, 'x') + ".com").has_value());
  EXPECT_TRUE(DomainName::parse(std::string(63, 'x') + ".com").has_value());
}

TEST(DomainName, RejectsOversizeName) {
  // 5 labels of 63 bytes = 320 wire bytes > 255.
  std::string big;
  for (int i = 0; i < 5; ++i) big += std::string(63, 'a') + ".";
  EXPECT_FALSE(DomainName::parse(big).has_value());
}

TEST(DomainName, CaseInsensitiveEquality) {
  EXPECT_EQ(*DomainName::parse("WWW.Foo.COM"), *DomainName::parse("www.foo.com"));
}

TEST(DomainName, SubdomainRelation) {
  auto www = *DomainName::parse("www.foo.com");
  auto foo = *DomainName::parse("foo.com");
  auto com = *DomainName::parse("com");
  auto bar = *DomainName::parse("bar.com");
  EXPECT_TRUE(www.is_subdomain_of(foo));
  EXPECT_TRUE(www.is_subdomain_of(com));
  EXPECT_TRUE(www.is_subdomain_of(DomainName{}));  // root
  EXPECT_TRUE(www.is_subdomain_of(www));
  EXPECT_FALSE(www.is_subdomain_of(bar));
  EXPECT_FALSE(foo.is_subdomain_of(www));
}

TEST(DomainName, ParentAndSuffix) {
  auto www = *DomainName::parse("www.foo.com");
  EXPECT_EQ(www.parent().to_string(), "foo.com.");
  EXPECT_EQ(www.suffix(1).to_string(), "com.");
  EXPECT_EQ(www.suffix(2).to_string(), "foo.com.");
  EXPECT_EQ(www.suffix(5).to_string(), "www.foo.com.");
  EXPECT_TRUE(DomainName{}.parent().is_root());
}

TEST(DomainName, WithPrefixLabel) {
  auto com = *DomainName::parse("com");
  auto prefixed = com.with_prefix_label("PRa1b2c3d4foo");
  ASSERT_TRUE(prefixed.has_value());
  EXPECT_EQ(prefixed->to_string(), "PRa1b2c3d4foo.com.");
  EXPECT_FALSE(com.with_prefix_label("").has_value());
  EXPECT_FALSE(com.with_prefix_label(std::string(64, 'x')).has_value());
}

TEST(DomainName, ConcatJoinsLabelsWithinLimits) {
  auto joined = DomainName::concat(*DomainName::parse("www"),
                                   *DomainName::parse("foo.com"));
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->to_string(), "www.foo.com.");
  EXPECT_EQ(joined->label_count(), 3u);
  EXPECT_EQ(*joined, *DomainName::parse("www.foo.com"));
  EXPECT_EQ(DomainName::concat(*DomainName::parse("foo.com"), DomainName{})
                ->to_string(),
            "foo.com.");
  // Two 63-byte labels are 128 wire bytes; twice that plus the root byte
  // exceeds 255.
  auto half =
      *DomainName::parse(std::string(63, 'a') + "." + std::string(63, 'b'));
  EXPECT_FALSE(DomainName::concat(half, half).has_value());
}

// The name is its inline wire form: 255 bytes plus a length and a label
// count, copied as plain bytes.
static_assert(sizeof(DomainName) == kMaxNameLength + 2);
static_assert(std::is_trivially_copyable_v<DomainName>);

TEST(DomainName, WireFormIsLengthPrefixedLabels) {
  EXPECT_EQ(DomainName::parse("www.Foo.com")->wire(),
            std::string_view("\x03" "www" "\x03" "Foo" "\x03" "com"));
  EXPECT_TRUE(DomainName{}.wire().empty());
}

TEST(DomainName, Hash32KeepsFnv1aValues) {
  // Journeys key on qname hashes; these are the values the label-vector
  // implementation produced, so journey keys do not move.
  EXPECT_EQ(DomainName{}.hash32(), 0x811c9dc5u);
  EXPECT_EQ(DomainName::parse("com")->hash32(), 0x35b6be4bu);
  EXPECT_EQ(DomainName::parse("www.Example.COM")->hash32(), 0x0e191bcau);
  EXPECT_EQ(DomainName::parse("www.example.com")->hash32(), 0x0e191bcau);
}

TEST(NameWire, UncompressedRoundTrip) {
  auto n = *DomainName::parse("a.bc.def.example");
  ByteWriter w;
  write_name_uncompressed(w, n);
  EXPECT_EQ(w.size(), n.wire_length());
  Cursor r(w.view());
  DomainName d;
  ASSERT_TRUE(read_name(r, d));
  EXPECT_EQ(d, n);
  EXPECT_TRUE(r.at_end());
}

TEST(NameWire, CompressionReusesSuffix) {
  auto a = *DomainName::parse("www.foo.com");
  auto b = *DomainName::parse("mail.foo.com");
  ByteWriter w;
  NameCompressor compressor;
  compressor.write(w, a);
  std::size_t first = w.size();
  compressor.write(w, b);
  // Second name should be "mail" label (5 bytes) + 2-byte pointer.
  EXPECT_EQ(w.size() - first, 5u + 2u);

  Cursor r(w.view());
  DomainName da;
  DomainName db;
  ASSERT_TRUE(read_name(r, da));
  ASSERT_TRUE(read_name(r, db));
  EXPECT_EQ(da, a);
  EXPECT_EQ(db, b);
}

TEST(NameWire, IdenticalNameBecomesPurePointer) {
  auto a = *DomainName::parse("www.foo.com");
  ByteWriter w;
  NameCompressor compressor;
  compressor.write(w, a);
  std::size_t first = w.size();
  compressor.write(w, a);
  EXPECT_EQ(w.size() - first, 2u);  // a single pointer
}

TEST(NameWire, PointerLoopRejected) {
  // A name whose pointer points at itself.
  Bytes evil{0xc0, 0x00};
  Cursor r{BytesView(evil)};
  DomainName d;
  EXPECT_FALSE(read_name(r, d));
}

TEST(NameWire, ForwardPointerRejected) {
  // Pointer to offset beyond itself (forward reference).
  Bytes evil{0xc0, 0x05, 0, 0, 0, 3, 'a', 'b', 'c', 0};
  Cursor r{BytesView(evil)};
  DomainName d;
  EXPECT_FALSE(read_name(r, d));
}

TEST(NameWire, ReservedLabelTypesRejected) {
  Bytes evil{0x80, 'x', 0};  // 10-prefixed label type is reserved
  Cursor r{BytesView(evil)};
  DomainName d;
  EXPECT_FALSE(read_name(r, d));
}

TEST(NameWire, TruncatedNameRejected) {
  Bytes evil{5, 'a', 'b'};  // label promises 5 bytes, only 2 present
  Cursor r{BytesView(evil)};
  DomainName d;
  EXPECT_FALSE(read_name(r, d));
}

TEST(NameWire, OversizeAssembledNameRejected) {
  // Chain of labels totalling more than 255 bytes via direct encoding.
  ByteWriter w;
  for (int i = 0; i < 6; ++i) {
    w.u8(50);
    for (int j = 0; j < 50; ++j) w.u8('a');
  }
  w.u8(0);
  Cursor r(w.view());
  DomainName d;
  EXPECT_FALSE(read_name(r, d));
}

// Property: parse -> wire -> parse is identity for many realistic names.
class NameRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(NameRoundTrip, Identity) {
  auto n = DomainName::parse(GetParam());
  ASSERT_TRUE(n.has_value());
  ByteWriter w;
  NameCompressor c;
  c.write(w, *n);
  Cursor r(w.view());
  DomainName d;
  ASSERT_TRUE(read_name(r, d));
  EXPECT_EQ(d, *n);
  EXPECT_EQ(d.to_string(), n->to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Names, NameRoundTrip,
    ::testing::Values(".", "com", "foo.com", "www.foo.com",
                      "a.b.c.d.e.f.g.h.i.j", "xn--bcher-kva.example",
                      "PRa1b2c3d4com", "PRdeadbeefwww.foo.com",
                      "a.root-servers.net", "_sip._tcp.example.org"));

}  // namespace
}  // namespace dnsguard::dns
