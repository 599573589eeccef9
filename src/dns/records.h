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
//
// Every RDATA type is held inline, so a record never touches the heap:
// names in their wire form (dns/name.h), TXT and unknown-type RDATA as
// their wire bytes in a fixed 512-byte buffer (RdataBytes). The buffer
// fits in the space SoaRdata's two names already give the variant, so
// sizeof(ResourceRecord) stays 816 bytes. RDATA longer than the buffer
// fails decode; a UDP message of at most 512 bytes cannot carry any.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

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

/// RDATA bytes held inline: at most kCapacity bytes, no heap. Only the
/// used bytes are ever read, so the user-provided default constructors
/// here and in the two types that hold one leave the buffer uninitialized:
/// emplacing a TXT record does not zero 512 bytes.
class RdataBytes {
 public:
  static constexpr std::size_t kCapacity = 512;

  RdataBytes() {}

  [[nodiscard]] BytesView bytes() const { return {data_.data(), size_}; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Replaces the contents; false (contents unchanged) past capacity.
  bool assign(BytesView b);
  /// Appends `b`; false (contents unchanged) past capacity.
  bool append(BytesView b);

  bool operator==(const RdataBytes& other) const;

 private:
  std::array<std::uint8_t, kCapacity> data_;
  std::uint16_t size_ = 0;
};

/// TXT carries one or more <character-string>s, each <= 255 bytes, held
/// in their wire form: each string's length byte followed by its bytes.
struct TxtRdata {
  static constexpr std::size_t kMaxString = 255;

  TxtRdata() {}

  /// Appends one character-string; false (record unchanged) if it is
  /// longer than 255 bytes or would overflow the 512-byte buffer.
  bool append(BytesView s);
  [[nodiscard]] std::size_t string_count() const;
  /// The first string; empty if there is none.
  [[nodiscard]] BytesView front() const { return string(0); }
  /// The i-th string; empty if there are not that many.
  [[nodiscard]] BytesView string(std::size_t i) const;
  /// The wire form (the whole RDATA).
  [[nodiscard]] BytesView bytes() const { return wire.bytes(); }

  /// Single binary string convenience (the cookie payload).
  [[nodiscard]] static TxtRdata single(BytesView data) {
    TxtRdata t;
    t.append(data);
    return t;
  }
  bool operator==(const TxtRdata&) const = default;

  RdataBytes wire;
};

struct OptRdata {
  std::uint16_t udp_payload_size = 512;  // carried in the CLASS field
  bool operator==(const OptRdata&) const = default;
};

/// RDATA of a type this codec does not interpret, kept as its bytes.
struct RawRdata {
  RawRdata() {}

  std::uint16_t type = 0;
  RdataBytes data;

  /// Unknown-type RDATA holding `bytes`, which must fit the buffer.
  [[nodiscard]] static RawRdata of(std::uint16_t type, BytesView bytes) {
    RawRdata r;
    r.type = type;
    r.data.assign(bytes);
    return r;
  }
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
  /// Decodes the record at the cursor into `out`, reading its names and
  /// RDATA straight into place. Returns false on malformation, and on TXT
  /// or unknown-type RDATA longer than 512 bytes, leaving `out`
  /// unspecified.
  [[nodiscard]] static bool decode_into(Cursor& c, ResourceRecord& out);

  [[nodiscard]] std::string to_string() const;
  bool operator==(const ResourceRecord&) const = default;
};

// SoaRdata's two names set the variant's size; the inline RDATA buffers
// must fit under it.
static_assert(sizeof(ResourceRecord) <= 816);

}  // namespace dnsguard::dns
