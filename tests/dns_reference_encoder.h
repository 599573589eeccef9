// Test-only reference encoder: the map-based name compressor the codec
// used before names were kept in wire form, kept as a differential oracle
// for the table-free NameCompressor and Message::encode_to.
//
// Unlike that original, which keyed suffixes by their dotted text (so a
// label containing '.' collided with a label boundary), this one keys them
// by their length-prefixed, lowercased labels.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/message.h"

namespace dnsguard::dns::oracle {

/// The labels of `name`, leftmost first.
inline std::vector<std::string_view> labels_of(const DomainName& name) {
  std::vector<std::string_view> out;
  const std::string_view wire = name.wire();
  for (std::size_t at = 0; at < wire.size();) {
    const std::size_t len = static_cast<std::uint8_t>(wire[at]);
    out.push_back(wire.substr(at + 1, len));
    at += 1 + len;
  }
  return out;
}

class ReferenceCompressor {
 public:
  void write(ByteWriter& w, const DomainName& name) {
    const std::vector<std::string_view> labels = labels_of(name);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::string key = suffix_key(labels, i);
      auto it = offsets_.find(key);
      if (it != offsets_.end() && it->second <= 0x3fff) {
        w.u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return;
      }
      if (w.size() <= 0x3fff) offsets_.emplace(std::move(key), w.size());
      w.u8(static_cast<std::uint8_t>(labels[i].size()));
      w.raw(labels[i]);
    }
    w.u8(0);
  }

 private:
  static std::string suffix_key(const std::vector<std::string_view>& labels,
                                std::size_t from) {
    std::string key;
    for (std::size_t i = from; i < labels.size(); ++i) {
      key.push_back(static_cast<char>(labels[i].size()));
      for (char c : labels[i]) {
        key.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                           : c);
      }
    }
    return key;
  }

  std::unordered_map<std::string, std::size_t> offsets_;
};

inline void write_uncompressed(ByteWriter& w, const DomainName& name) {
  for (std::string_view label : labels_of(name)) {
    w.u8(static_cast<std::uint8_t>(label.size()));
    w.raw(label);
  }
  w.u8(0);
}

inline void write_record(ByteWriter& w, ReferenceCompressor& compressor,
                         const ResourceRecord& rr) {
  compressor.write(w, rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type));
  if (rr.type == RrType::OPT) {
    w.u16(std::get<OptRdata>(rr.rdata).udp_payload_size);
  } else {
    w.u16(static_cast<std::uint16_t>(rr.rclass));
  }
  w.u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);
  if (const auto* a = std::get_if<ARdata>(&rr.rdata)) {
    w.u32(a->address.value());
  } else if (const auto* ns = std::get_if<NsRdata>(&rr.rdata)) {
    write_uncompressed(w, ns->nsdname);
  } else if (const auto* cname = std::get_if<CnameRdata>(&rr.rdata)) {
    write_uncompressed(w, cname->target);
  } else if (const auto* soa = std::get_if<SoaRdata>(&rr.rdata)) {
    write_uncompressed(w, soa->mname);
    write_uncompressed(w, soa->rname);
    for (std::uint32_t v : {soa->serial, soa->refresh, soa->retry,
                            soa->expire, soa->minimum}) {
      w.u32(v);
    }
  } else if (const auto* txt = std::get_if<TxtRdata>(&rr.rdata)) {
    for (std::size_t i = 0; i < txt->string_count(); ++i) {
      const BytesView s = txt->string(i);
      w.u8(static_cast<std::uint8_t>(s.size()));
      w.raw(s);
    }
  } else if (const auto* raw = std::get_if<RawRdata>(&rr.rdata)) {
    w.raw(raw->data.bytes());
  }
  w.patch_u16(rdlength_at,
              static_cast<std::uint16_t>(w.size() - rdlength_at - 2));
}

/// Encodes `m` the way Message::encode_to must, byte for byte.
inline Bytes reference_encode(const Message& m) {
  ByteWriter w;
  ReferenceCompressor compressor;
  w.u16(m.header.id);
  std::uint16_t flags = 0;
  if (m.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(m.header.opcode) & 0xf) << 11);
  if (m.header.aa) flags |= 0x0400;
  if (m.header.tc) flags |= 0x0200;
  if (m.header.rd) flags |= 0x0100;
  if (m.header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(m.header.rcode) & 0xf;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authority.size()));
  w.u16(static_cast<std::uint16_t>(m.additional.size()));
  for (const Question& q : m.questions) {
    compressor.write(w, q.qname);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto* section : {&m.answers, &m.authority, &m.additional}) {
    for (const ResourceRecord& rr : *section) write_record(w, compressor, rr);
  }
  return std::move(w).take();
}

}  // namespace dnsguard::dns::oracle
