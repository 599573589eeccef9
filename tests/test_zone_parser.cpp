// Master-file zone parser.
#include <gtest/gtest.h>

#include "server/zone.h"
#include "server/zone_parser.h"

namespace dnsguard::server {
namespace {

using dns::DomainName;
using dns::RrType;

Zone must_parse(std::string_view text, const char* origin = ".") {
  auto r = parse_zone(text, *DomainName::parse(origin));
  if (auto* err = std::get_if<ZoneParseError>(&r)) {
    ADD_FAILURE() << err->to_string();
    return Zone(DomainName{});
  }
  return std::get<Zone>(std::move(r));
}

ZoneParseError must_fail(std::string_view text, const char* origin = ".") {
  auto r = parse_zone(text, *DomainName::parse(origin));
  if (std::holds_alternative<Zone>(r)) {
    ADD_FAILURE() << "expected parse failure";
    return ZoneParseError{};
  }
  return std::get<ZoneParseError>(r);
}

constexpr const char* kFooZone = R"(
$ORIGIN foo.com.
$TTL 3600
@       IN SOA ns1 admin (2024070601 7200 900 1209600 300)
@       IN NS  ns1
ns1     IN A   10.0.0.3
www     60 IN A 192.0.2.80
web     IN CNAME www
mail    A 192.0.2.25          ; class omitted
info    IN TXT "hello world" "second"
)";

TEST(ZoneParser, ParsesRepresentativeZone) {
  Zone z = must_parse(kFooZone);
  EXPECT_EQ(z.origin().to_string(), "foo.com.");
  EXPECT_EQ(z.record_count(), 7u);

  auto soa = z.soa();
  ASSERT_TRUE(soa.has_value());
  const auto& rd = std::get<dns::SoaRdata>(soa->rdata);
  EXPECT_EQ(rd.mname.to_string(), "ns1.foo.com.");
  EXPECT_EQ(rd.rname.to_string(), "admin.foo.com.");
  EXPECT_EQ(rd.serial, 2024070601u);
  EXPECT_EQ(rd.minimum, 300u);

  auto www = z.find(*DomainName::parse("www.foo.com"), RrType::A);
  ASSERT_EQ(www.size(), 1u);
  EXPECT_EQ(www[0].ttl, 60u);  // per-record TTL override
  EXPECT_EQ(std::get<dns::ARdata>(www[0].rdata).address,
            net::Ipv4Address(192, 0, 2, 80));

  auto ns1 = z.find(*DomainName::parse("ns1.foo.com"), RrType::A);
  ASSERT_EQ(ns1.size(), 1u);
  EXPECT_EQ(ns1[0].ttl, 3600u);  // $TTL default

  auto txt = z.find(*DomainName::parse("info.foo.com"), RrType::TXT);
  ASSERT_EQ(txt.size(), 1u);
  EXPECT_EQ(std::get<dns::TxtRdata>(txt[0].rdata).string_count(), 2u);
}

TEST(ZoneParser, RelativeAndAbsoluteNames) {
  Zone z = must_parse(R"(
$ORIGIN foo.com.
www           IN A 1.2.3.4
bare.example. IN A 5.6.7.8
)");
  EXPECT_FALSE(z.find(*dns::DomainName::parse("www.foo.com"),
                      RrType::A).empty());
  // The absolute out-of-zone A record is retained as glue.
  EXPECT_FALSE(z.find(*dns::DomainName::parse("bare.example"),
                      RrType::A).empty());
}

TEST(ZoneParser, OwnerInheritance) {
  Zone z = must_parse(R"(
$ORIGIN foo.com.
www IN A 1.1.1.1
    IN A 2.2.2.2
)");
  EXPECT_EQ(z.find(*DomainName::parse("www.foo.com"), RrType::A).size(), 2u);
}

TEST(ZoneParser, AtSignIsOrigin) {
  Zone z = must_parse("$ORIGIN bar.org.\n@ IN NS ns.bar.org.\n");
  EXPECT_EQ(z.find(*DomainName::parse("bar.org"), RrType::NS).size(), 1u);
}

TEST(ZoneParser, DefaultOriginUsedWithoutDirective) {
  Zone z = must_parse("www IN A 9.9.9.9\n", "corp.test.");
  EXPECT_FALSE(z.find(*DomainName::parse("www.corp.test"),
                      RrType::A).empty());
}

TEST(ZoneParser, MultiLineSoaParens) {
  Zone z = must_parse(R"(
$ORIGIN x.y.
@ IN SOA ns admin (
      1      ; serial
      7200   ; refresh
      900    ; retry
      1209600
      300 )
)");
  EXPECT_TRUE(z.soa().has_value());
}

TEST(ZoneParser, CommentsAndBlankLinesIgnored) {
  Zone z = must_parse(R"(
; a full-line comment

$ORIGIN z.example.   ; trailing comment
a IN A 1.1.1.1 ; another
)");
  EXPECT_EQ(z.record_count(), 1u);
}

TEST(ZoneParser, ErrorsCarryLineNumbers) {
  auto err = must_fail("$ORIGIN ok.example.\nbroken IN A not-an-ip\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("IPv4"), std::string::npos);
}

TEST(ZoneParser, RejectsTxtOverRdataCapacity) {
  // Two 255-byte strings fill the 512-byte RDATA buffer; a third does not
  // fit.
  const std::string s(255, 'a');
  const std::string two = "$ORIGIN e.\nx IN TXT \"" + s + "\" \"" + s + "\"\n";
  EXPECT_EQ(must_parse(two, "e.").record_count(), 1u);
  auto err = must_fail("$ORIGIN e.\nx IN TXT \"" + s + "\" \"" + s +
                       "\" \"b\"\n");
  EXPECT_EQ(err.line, 2);
  EXPECT_NE(err.message.find("512"), std::string::npos);
}

TEST(ZoneParser, RejectsUnknownType) {
  auto err = must_fail("$ORIGIN e.\nx IN MX 10 mail.e.\n");
  EXPECT_EQ(err.line, 2);
}

TEST(ZoneParser, RejectsUnknownDirective) {
  auto err = must_fail("$INCLUDE other.zone\n");
  EXPECT_EQ(err.line, 1);
}

TEST(ZoneParser, RejectsUnbalancedParens) {
  auto err = must_fail("$ORIGIN e.\n@ IN SOA a b (1 2 3 4 5\n");
  EXPECT_NE(err.message.find("unbalanced"), std::string::npos);
}

TEST(ZoneParser, RejectsUnterminatedString) {
  auto err = must_fail("$ORIGIN e.\nx IN TXT \"oops\n");
  EXPECT_NE(err.message.find("unterminated"), std::string::npos);
}

TEST(ZoneParser, RejectsTrailingTokens) {
  auto err = must_fail("$ORIGIN e.\nx IN A 1.2.3.4 extra\n");
  EXPECT_EQ(err.line, 2);
}

TEST(ZoneParser, RejectsBadTtlDirective) {
  auto err = must_fail("$TTL soon\n");
  EXPECT_EQ(err.line, 1);
}

TEST(ZoneParser, ParsedZoneServesQueries) {
  // End-to-end: a parsed zone drives the authoritative engine.
  AuthoritativeEngine engine;
  engine.add_zone(must_parse(kFooZone));
  auto q = dns::Message::query(1, *DomainName::parse("web.foo.com"),
                               RrType::A, false);
  Answer a = engine.answer(q);
  EXPECT_EQ(a.kind, AnswerKind::Authoritative);
  ASSERT_EQ(a.message.answers.size(), 2u);  // CNAME + chased A
}

}  // namespace
}  // namespace dnsguard::server
