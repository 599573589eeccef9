#include "dns/records.h"

#include <algorithm>
#include <cstdio>

namespace dnsguard::dns {

bool RdataBytes::assign(BytesView b) {
  if (b.size() > kCapacity) return false;
  std::copy(b.begin(), b.end(), data_.begin());
  size_ = static_cast<std::uint16_t>(b.size());
  return true;
}

bool RdataBytes::append(BytesView b) {
  if (b.size() > kCapacity - size_) return false;
  std::copy(b.begin(), b.end(), data_.begin() + size_);
  size_ = static_cast<std::uint16_t>(size_ + b.size());
  return true;
}

bool RdataBytes::operator==(const RdataBytes& other) const {
  return std::ranges::equal(bytes(), other.bytes());
}

bool TxtRdata::append(BytesView s) {
  if (s.size() > kMaxString ||
      1 + s.size() > RdataBytes::kCapacity - wire.size()) {
    return false;
  }
  const auto len = static_cast<std::uint8_t>(s.size());
  return wire.append(BytesView(&len, 1)) && wire.append(s);
}

// The wire form is well formed when append() or decode built it; a string
// whose length byte overruns the buffer anyway is cut at its end.
std::size_t TxtRdata::string_count() const {
  const BytesView b = bytes();
  std::size_t n = 0;
  for (std::size_t at = 0; at < b.size(); at += 1u + b[at]) ++n;
  return n;
}

BytesView TxtRdata::string(std::size_t i) const {
  const BytesView b = bytes();
  for (std::size_t at = 0; at < b.size(); at += 1u + b[at]) {
    if (i-- == 0) {
      return b.subspan(at + 1, std::min<std::size_t>(b[at], b.size() - at - 1));
    }
  }
  return {};
}

std::string rr_type_name(RrType t) {
  switch (t) {
    case RrType::A: return "A";
    case RrType::NS: return "NS";
    case RrType::CNAME: return "CNAME";
    case RrType::SOA: return "SOA";
    case RrType::TXT: return "TXT";
    case RrType::AAAA: return "AAAA";
    case RrType::OPT: return "OPT";
  }
  return "TYPE" + std::to_string(static_cast<unsigned>(t));
}

ResourceRecord ResourceRecord::a(DomainName name, net::Ipv4Address addr,
                                 std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::A, RrClass::IN, ttl,
                        ARdata{addr}};
}

ResourceRecord ResourceRecord::ns(DomainName name, DomainName nsdname,
                                  std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::NS, RrClass::IN, ttl,
                        NsRdata{std::move(nsdname)}};
}

ResourceRecord ResourceRecord::cname(DomainName name, DomainName target,
                                     std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::CNAME, RrClass::IN, ttl,
                        CnameRdata{std::move(target)}};
}

ResourceRecord ResourceRecord::soa(DomainName name, SoaRdata soa,
                                   std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::SOA, RrClass::IN, ttl,
                        std::move(soa)};
}

ResourceRecord ResourceRecord::txt(DomainName name, TxtRdata txt,
                                   std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RrType::TXT, RrClass::IN, ttl,
                        std::move(txt)};
}

void ResourceRecord::encode(ByteWriter& w, NameCompressor& compressor) const {
  compressor.write(w, name);
  w.u16(static_cast<std::uint16_t>(type));
  if (type == RrType::OPT) {
    // For OPT, CLASS carries the requester's UDP payload size (RFC 6891).
    w.u16(std::get<OptRdata>(rdata).udp_payload_size);
  } else {
    w.u16(static_cast<std::uint16_t>(rclass));
  }
  w.u32(ttl);
  std::size_t rdlength_at = w.size();
  w.u16(0);  // RDLENGTH placeholder
  std::size_t rdata_start = w.size();

  std::visit(
      [&w](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          w.u32(rd.address.value());
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          write_name_uncompressed(w, rd.nsdname);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          write_name_uncompressed(w, rd.target);
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          write_name_uncompressed(w, rd.mname);
          write_name_uncompressed(w, rd.rname);
          w.u32(rd.serial);
          w.u32(rd.refresh);
          w.u32(rd.retry);
          w.u32(rd.expire);
          w.u32(rd.minimum);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          w.raw(rd.bytes());
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          // No options carried.
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          w.raw(rd.data.bytes());
        }
      },
      rdata);

  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.size() - rdata_start));
}

bool ResourceRecord::decode_into(Cursor& c, ResourceRecord& rr) {
  if (!read_name(c, rr.name)) return false;
  std::uint16_t type = c.u16();
  std::uint16_t rclass = c.u16();
  rr.ttl = c.u32();
  std::uint16_t rdlength = c.u16();
  if (!c.ok() || !c.push_window(rdlength)) return false;

  rr.type = static_cast<RrType>(type);
  rr.rclass = static_cast<RrClass>(rclass);

  switch (rr.type) {
    case RrType::A: {
      if (rdlength != 4) return false;
      rr.rdata = ARdata{net::Ipv4Address(c.u32())};
      break;
    }
    case RrType::NS: {
      auto& ns = rr.rdata.emplace<NsRdata>();
      if (!read_name(c, ns.nsdname) || !c.at_limit()) return false;
      break;
    }
    case RrType::CNAME: {
      auto& cname = rr.rdata.emplace<CnameRdata>();
      if (!read_name(c, cname.target) || !c.at_limit()) return false;
      break;
    }
    case RrType::SOA: {
      auto& soa = rr.rdata.emplace<SoaRdata>();
      if (!read_name(c, soa.mname) || !read_name(c, soa.rname)) return false;
      soa.serial = c.u32();
      soa.refresh = c.u32();
      soa.retry = c.u32();
      soa.expire = c.u32();
      soa.minimum = c.u32();
      if (!c.ok() || !c.at_limit()) return false;
      break;
    }
    case RrType::TXT: {
      // The strings are kept in their wire form: check that every length
      // byte stays inside the RDATA, then copy the RDATA whole.
      if (rdlength > RdataBytes::kCapacity) return false;
      const Cursor::Mark start = c.mark();
      while (c.ok() && !c.at_limit()) c.skip(c.u8());
      if (!c.ok()) return false;
      c.resume(start);
      if (!rr.rdata.emplace<TxtRdata>().wire.assign(c.raw(rdlength))) {
        return false;
      }
      break;
    }
    case RrType::OPT: {
      // CLASS field holds the UDP payload size.
      rr.rclass = RrClass::IN;
      rr.rdata = OptRdata{rclass};
      c.skip(rdlength);
      if (!c.ok()) return false;
      break;
    }
    default: {
      BytesView raw = c.raw(rdlength);
      if (!c.ok()) return false;
      auto& rd = rr.rdata.emplace<RawRdata>();
      rd.type = type;
      if (!rd.data.assign(raw)) return false;
      break;
    }
  }

  if (!c.at_limit()) return false;
  c.pop_window();
  return true;
}

std::string ResourceRecord::to_string() const {
  std::string out = name.to_string() + " " + std::to_string(ttl) + " IN " +
                    rr_type_name(type) + " ";
  std::visit(
      [&out](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          out += rd.address.to_string();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          out += rd.nsdname.to_string();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          out += rd.target.to_string();
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          out += rd.mname.to_string() + " " + rd.rname.to_string() + " " +
                 std::to_string(rd.serial);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          out += '(';
          out += std::to_string(rd.string_count());
          out += " strings)";
        } else if constexpr (std::is_same_v<T, OptRdata>) {
          out += "udp=" + std::to_string(rd.udp_payload_size);
        } else if constexpr (std::is_same_v<T, RawRdata>) {
          out += "\\# " + std::to_string(rd.data.size());
        }
      },
      rdata);
  return out;
}

}  // namespace dnsguard::dns
