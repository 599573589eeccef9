#include "dns/message.h"

#include "common/pool.h"

namespace dnsguard::dns {
namespace {

/// decode_into keeps a section's storage for the next message up to this
/// many entries (a root referral carries 13 NS and their glue). Storage
/// left by a larger message, possibly a hostile one, is released, so a
/// reused message holds at most this many entries per section.
constexpr std::size_t kRetainedEntries = 64;

template <typename T>
void reset_section(std::vector<T>& section) {
  if (section.capacity() > kRetainedEntries) {
    section = std::vector<T>();
  } else {
    section.clear();
  }
}

}  // namespace

void Question::encode(ByteWriter& w, NameCompressor& compressor) const {
  compressor.write(w, qname);
  w.u16(static_cast<std::uint16_t>(qtype));
  w.u16(static_cast<std::uint16_t>(qclass));
}

bool Question::decode_into(Cursor& c, Question& out) {
  if (!read_name(c, out.qname)) return false;
  out.qtype = static_cast<RrType>(c.u16());
  out.qclass = static_cast<RrClass>(c.u16());
  return c.ok();
}

std::string Question::to_string() const {
  return qname.to_string() + " IN " + rr_type_name(qtype);
}

Bytes Message::encode() const {
  Bytes out;
  out.reserve(kMaxUdpPayload);
  encode_to(out);
  return out;
}

Bytes Message::encode_pooled() const {
  Bytes out = BufferPool::local().acquire(kMaxUdpPayload);
  encode_to(out);
  return out;
}

void Message::encode_to(Bytes& out) const {
  ByteWriter w(std::move(out));
  NameCompressor compressor;

  w.u16(header.id);
  std::uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(header.opcode) & 0xf) << 11);
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(header.rcode) & 0xf;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authority.size()));
  w.u16(static_cast<std::uint16_t>(additional.size()));

  for (const auto& q : questions) q.encode(w, compressor);
  for (const auto& rr : answers) rr.encode(w, compressor);
  for (const auto& rr : authority) rr.encode(w, compressor);
  for (const auto& rr : additional) rr.encode(w, compressor);
  out = std::move(w).take();
}

bool Message::decode_into(BytesView wire, Message& out) {
  Cursor c(wire);
  out.header.id = c.u16();
  std::uint16_t flags = c.u16();
  std::uint16_t qdcount = c.u16();
  std::uint16_t ancount = c.u16();
  std::uint16_t nscount = c.u16();
  std::uint16_t arcount = c.u16();
  if (!c.ok()) return false;

  out.header.qr = (flags & 0x8000) != 0;
  out.header.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  out.header.aa = (flags & 0x0400) != 0;
  out.header.tc = (flags & 0x0200) != 0;
  out.header.rd = (flags & 0x0100) != 0;
  out.header.ra = (flags & 0x0080) != 0;
  out.header.rcode = static_cast<Rcode>(flags & 0xf);

  // Entries are appended one at a time, not resized to the claimed count:
  // a lying count fails at the first missing entry instead of growing the
  // section to 65,535 entries.
  reset_section(out.questions);
  for (std::uint16_t i = 0; i < qdcount; ++i) {
    if (!Question::decode_into(c, out.questions.emplace_back())) return false;
  }
  auto read_section = [&c](std::uint16_t count,
                           std::vector<ResourceRecord>& section) {
    reset_section(section);
    for (std::uint16_t i = 0; i < count; ++i) {
      if (!ResourceRecord::decode_into(c, section.emplace_back())) {
        return false;
      }
    }
    return true;
  };
  if (!read_section(ancount, out.answers)) return false;
  if (!read_section(nscount, out.authority)) return false;
  if (!read_section(arcount, out.additional)) return false;
  return c.at_end();  // no trailing garbage
}

std::optional<Message> Message::decode(BytesView wire) {
  Message m;
  if (!decode_into(wire, m)) return std::nullopt;
  return m;
}

void Message::set_query(std::uint16_t id, const DomainName& qname,
                        RrType qtype, bool recursion_desired) {
  header = Header{.id = id, .rd = recursion_desired};
  questions.clear();
  questions.push_back(Question{qname, qtype, RrClass::IN});
  answers.clear();
  authority.clear();
  additional.clear();
}

void Message::become_response() {
  header = Header{.id = header.id,
                  .qr = true,
                  .opcode = header.opcode,
                  .rd = header.rd};
  answers.clear();
  authority.clear();
  additional.clear();
}

Message Message::query(std::uint16_t id, DomainName qname, RrType qtype,
                       bool recursion_desired) {
  Message m;
  m.set_query(id, qname, qtype, recursion_desired);
  return m;
}

Message Message::response_to(const Message& request) {
  Message m;
  m.header = request.header;
  m.questions = request.questions;
  m.become_response();
  return m;
}

bool Message::is_referral() const {
  if (!header.qr || !answers.empty() || authority.empty()) return false;
  for (const auto& rr : authority) {
    if (rr.type != RrType::NS) return false;
  }
  return true;
}

std::string Message::to_string() const {
  std::string out = header.qr ? "response" : "query";
  out += " id=" + std::to_string(header.id);
  if (header.aa) out += " aa";
  if (header.tc) out += " tc";
  if (header.rcode != Rcode::NoError) {
    out += " rcode=" + std::to_string(static_cast<unsigned>(header.rcode));
  }
  for (const auto& q : questions) out += " Q{" + q.to_string() + "}";
  for (const auto& rr : answers) out += " AN{" + rr.to_string() + "}";
  for (const auto& rr : authority) out += " NS{" + rr.to_string() + "}";
  for (const auto& rr : additional) out += " AR{" + rr.to_string() + "}";
  return out;
}

}  // namespace dnsguard::dns
