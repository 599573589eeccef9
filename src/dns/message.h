// The DNS message (RFC 1035 §4): header, question, answer, authority,
// additional sections, with full wire codec.
//
// The paper's evaluation is sensitive to message *sizes* (truncation at
// 512 bytes triggers the TCP-based scheme; amplification ratios compare
// response to request bytes), so encode() is byte-exact RFC 1035 format.
//
// Packet paths keep their messages across packets: a node decodes each
// packet into one member message (decode_into) and builds what it sends
// in place, either in that same message (become_response turns a decoded
// query into the start of its reply) or in a second member message
// (set_query). Records hold all their data inline (dns/records.h), so once
// a message's sections have grown to the traffic's shape, none of this
// allocates. query(), response_to() and decode() build fresh messages for
// tests and cold paths.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "dns/name.h"
#include "dns/records.h"

namespace dnsguard::dns {

/// Conventional maximum UDP DNS payload without EDNS0 (RFC 1035 §2.3.4).
inline constexpr std::size_t kMaxUdpPayload = 512;

enum class Opcode : std::uint8_t { Query = 0, IQuery = 1, Status = 2 };

enum class Rcode : std::uint8_t {
  NoError = 0,
  FormErr = 1,
  ServFail = 2,
  NxDomain = 3,
  NotImp = 4,
  Refused = 5,
};

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::Query;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated — drives the TCP-based scheme
  bool rd = false;  // recursion desired
  bool ra = false;  // recursion available
  Rcode rcode = Rcode::NoError;

  bool operator==(const Header&) const = default;
};

struct Question {
  DomainName qname;
  RrType qtype = RrType::A;
  RrClass qclass = RrClass::IN;

  void encode(ByteWriter& w, NameCompressor& compressor) const;
  /// Decodes the question at the cursor into `out`; false on malformation.
  [[nodiscard]] static bool decode_into(Cursor& c, Question& out);
  [[nodiscard]] std::string to_string() const;
  bool operator==(const Question&) const = default;
};

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;

  [[nodiscard]] Bytes encode() const;
  /// Serializes into `out`, clearing it first but reusing its capacity —
  /// the allocation-free path for hot-loop re-serialization.
  void encode_to(Bytes& out) const;
  /// Serializes into a buffer drawn from the thread-local BufferPool;
  /// consumed packets return their payloads there (sim::Node), closing the
  /// recycle loop for guard/server fast paths.
  [[nodiscard]] Bytes encode_pooled() const;
  /// Decodes `wire` into `out`, reusing the capacity of its section
  /// vectors: a message decoded into again and again stops allocating once
  /// the sections have grown to the traffic's shape. A section's storage
  /// is kept only up to 64 entries. Returns false on malformed input,
  /// leaving `out` unspecified.
  [[nodiscard]] static bool decode_into(BytesView wire, Message& out);
  [[nodiscard]] static std::optional<Message> decode(BytesView wire);

  /// Makes this message a standard query (one question, no records),
  /// keeping the sections' capacity.
  void set_query(std::uint16_t id, const DomainName& qname, RrType qtype,
                 bool recursion_desired);
  /// Turns a decoded query into the start of its response, in place:
  /// keeps id, opcode, RD and the questions, sets QR, clears every other
  /// flag and the three record sections (their capacity stays).
  void become_response();

  /// A fresh standard query (one question, RD set for stub->LRS usage).
  [[nodiscard]] static Message query(std::uint16_t id, DomainName qname,
                                     RrType qtype, bool recursion_desired);

  /// A fresh response to `request`: copies id/opcode/question, sets QR.
  [[nodiscard]] static Message response_to(const Message& request);

  [[nodiscard]] const Question* question() const {
    return questions.empty() ? nullptr : &questions.front();
  }

  /// True iff the answer section is empty and authority carries NS records
  /// for a zone below the server's apex — i.e. a referral (§III.B).
  [[nodiscard]] bool is_referral() const;

  [[nodiscard]] std::string to_string() const;
  bool operator==(const Message&) const = default;
};

}  // namespace dnsguard::dns
