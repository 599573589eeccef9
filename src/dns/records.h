// DNS resource records (RFC 1035 §3.2) with typed RDATA.
//
// The types implemented are the ones the paper's machinery touches:
//   A     — addresses, including the fabricated "COOKIE2" address of the
//           DNS-based scheme's non-referral variant
//   NS    — referral name-server names, including fabricated cookie names
//   CNAME — alias chains an authoritative server may serve
//   SOA   — zone apex / negative answers
//   TXT   — the modified-DNS scheme carries its 16-byte cookie in a TXT
//           record in the additional section (Fig. 3(b))
//   OPT   — EDNS0 presence detection (for message-size negotiation)
// plus a raw fallback so unknown types round-trip unharmed.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "dns/name.h"
#include "net/ipv4.h"

namespace dnsguard::dns {

enum class RrType : std::uint16_t {
  A = 1,
  NS = 2,
  CNAME = 5,
  SOA = 6,
  TXT = 16,
  AAAA = 28,
  OPT = 41,
};

enum class RrClass : std::uint16_t {
  IN = 1,
  ANY = 255,
};

[[nodiscard]] std::string rr_type_name(RrType t);

struct ARdata {
  net::Ipv4Address address;
  bool operator==(const ARdata&) const = default;
};

struct NsRdata {
  DomainName nsdname;
  bool operator==(const NsRdata&) const = default;
};

struct CnameRdata {
  DomainName target;
  bool operator==(const CnameRdata&) const = default;
};

struct SoaRdata {
  DomainName mname;
  DomainName rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
  bool operator==(const SoaRdata&) const = default;
};

/// TXT carries one or more <character-string>s, each ≤ 255 bytes.
struct TxtRdata {
  std::vector<Bytes> strings;

  /// Single binary string convenience (the cookie payload).
  [[nodiscard]] static TxtRdata single(BytesView data) {
    TxtRdata t;
    t.strings.emplace_back(data.begin(), data.end());
    return t;
  }
  bool operator==(const TxtRdata&) const = default;
};

struct OptRdata {
  std::uint16_t udp_payload_size = 512;  // carried in the CLASS field
  bool operator==(const OptRdata&) const = default;
};

struct RawRdata {
  std::uint16_t type = 0;
  Bytes data;
  bool operator==(const RawRdata&) const = default;
};

using Rdata = std::variant<ARdata, NsRdata, CnameRdata, SoaRdata, TxtRdata,
                           OptRdata, RawRdata>;

struct ResourceRecord {
  DomainName name;
  RrType type = RrType::A;
  RrClass rclass = RrClass::IN;
  std::uint32_t ttl = 0;
  Rdata rdata;

  [[nodiscard]] static ResourceRecord a(DomainName name,
                                        net::Ipv4Address addr,
                                        std::uint32_t ttl);
  [[nodiscard]] static ResourceRecord ns(DomainName name, DomainName nsdname,
                                         std::uint32_t ttl);
  [[nodiscard]] static ResourceRecord cname(DomainName name, DomainName target,
                                            std::uint32_t ttl);
  [[nodiscard]] static ResourceRecord soa(DomainName name, SoaRdata soa,
                                          std::uint32_t ttl);
  [[nodiscard]] static ResourceRecord txt(DomainName name, TxtRdata txt,
                                          std::uint32_t ttl);

  /// Serializes including RDLENGTH backpatching. Owner names go through
  /// the compressor; names inside RDATA are written uncompressed so RDATA
  /// lengths are context-independent.
  void encode(ByteWriter& w, NameCompressor& compressor) const;
  /// Decodes the record at the cursor into `out`, reading its names
  /// straight into place. Returns false on malformation, leaving `out`
  /// unspecified.
  [[nodiscard]] static bool decode_into(Cursor& c, ResourceRecord& out);

  [[nodiscard]] std::string to_string() const;
  bool operator==(const ResourceRecord&) const = default;
};

}  // namespace dnsguard::dns
