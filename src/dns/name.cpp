#include "dns/name.h"

#include <algorithm>

namespace dnsguard::dns {
namespace {

/// ASCII case folding (RFC 1035 §2.3.3); other octets compare exactly.
/// Length bytes are below 64, so folding a whole wire form leaves its
/// label structure intact.
std::uint8_t fold(std::uint8_t c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<std::uint8_t>(c - 'A' + 'a')
                                : c;
}
std::uint8_t fold(char c) { return fold(static_cast<std::uint8_t>(c)); }

/// Case-insensitive comparison of two wire forms (or labels).
bool equal_ci(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

/// True when the name this compressor wrote at `pos` of `out` equals,
/// case-insensitively, the wire-form suffix wire[at, end). Follows the
/// pointers found there; the compressor wrote them all, pointing back.
bool written_equals(BytesView out, std::size_t pos, std::string_view wire,
                    std::size_t at) {
  while (at < wire.size()) {
    const std::uint8_t len = out[pos];
    if ((len & 0xc0) == 0xc0) {
      pos = static_cast<std::size_t>(len & 0x3f) << 8 | out[pos + 1];
      continue;
    }
    if (len != static_cast<std::uint8_t>(wire[at])) return false;
    for (std::size_t k = 1; k <= len; ++k) {
      if (fold(out[pos + k]) != fold(wire[at + k])) return false;
    }
    pos += 1u + len;
    at += 1u + len;
  }
  return true;
}

}  // namespace

std::optional<DomainName> DomainName::parse(std::string_view text) {
  if (text.empty()) return std::nullopt;
  if (text == ".") return DomainName{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.empty()) return std::nullopt;

  DomainName name;
  for (;;) {
    const std::size_t dot = text.find('.');
    if (!name.push_label(text.substr(0, dot))) return std::nullopt;
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  return name;
}

std::optional<DomainName> DomainName::concat(const DomainName& head,
                                             const DomainName& tail) {
  if (head.len_ + tail.len_ + 1u > kMaxNameLength) return std::nullopt;
  DomainName out = head;
  std::copy_n(tail.wire_.begin(), tail.len_, out.wire_.begin() + head.len_);
  out.len_ = static_cast<std::uint8_t>(head.len_ + tail.len_);
  out.labels_ = static_cast<std::uint8_t>(head.labels_ + tail.labels_);
  return out;
}

bool DomainName::push_label(std::string_view label) {
  if (label.empty() || label.size() > kMaxLabelLength ||
      len_ + 1u + label.size() + 1u > kMaxNameLength) {
    return false;
  }
  wire_[len_] = static_cast<char>(label.size());
  label.copy(&wire_[len_ + 1u], label.size());
  len_ = static_cast<std::uint8_t>(len_ + 1u + label.size());
  ++labels_;
  return true;
}

std::size_t DomainName::label_offset(std::size_t k) const {
  std::size_t at = 0;
  for (std::size_t i = 0; i < k; ++i) {
    at += 1u + static_cast<std::uint8_t>(wire_[at]);
  }
  return at;
}

DomainName DomainName::tail(std::size_t at, std::size_t labels) const {
  DomainName out;
  std::copy(wire_.begin() + at, wire_.begin() + len_, out.wire_.begin());
  out.len_ = static_cast<std::uint8_t>(len_ - at);
  out.labels_ = static_cast<std::uint8_t>(labels);
  return out;
}

std::string DomainName::to_string() const {
  if (is_root()) return ".";
  std::string out;
  for (std::size_t at = 0; at < len_;) {
    const std::size_t n = static_cast<std::uint8_t>(wire_[at]);
    out.append(&wire_[at + 1], n);
    out += '.';
    at += 1 + n;
  }
  return out;
}

bool DomainName::equals(const DomainName& other) const {
  return equal_ci(wire(), other.wire());
}

bool DomainName::is_subdomain_of(const DomainName& ancestor) const {
  if (ancestor.labels_ > labels_) return false;
  const std::size_t at = label_offset(labels_ - ancestor.labels_);
  return equal_ci(std::string_view(&wire_[at], len_ - at), ancestor.wire());
}

DomainName DomainName::parent() const {
  if (is_root()) return {};
  return tail(label_offset(1), labels_ - 1u);
}

std::optional<DomainName> DomainName::with_prefix_label(
    std::string_view label) const {
  DomainName out;
  if (!out.push_label(label)) return std::nullopt;
  return concat(out, *this);
}

std::string_view DomainName::first_label() const {
  if (is_root()) return {};
  return {&wire_[1], static_cast<std::uint8_t>(wire_[0])};
}

std::uint32_t DomainName::hash32() const {
  // FNV-1a over the case-folded wire form: each label's length byte, then
  // its folded octets, so ("ab","c") and ("a","bc") hash differently.
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < len_; ++i) {
    h ^= fold(wire_[i]);
    h *= 16777619u;
  }
  return h;
}

DomainName DomainName::suffix(std::size_t n) const {
  if (n >= labels_) return *this;
  return tail(label_offset(labels_ - n), n);
}

std::optional<std::uint16_t> NameCompressor::find(BytesView out,
                                                  std::string_view wire,
                                                  std::size_t at) const {
  for (std::size_t e = 0; e < count_; ++e) {
    if (entries_[e].length == wire.size() - at &&
        written_equals(out, entries_[e].offset, wire, at)) {
      return entries_[e].offset;
    }
  }
  return std::nullopt;
}

void NameCompressor::write(ByteWriter& w, const DomainName& name) {
  const std::string_view wire = name.wire();
  std::size_t at = 0;
  while (at < wire.size()) {
    if (auto target = find(w.view(), wire, at)) {
      // Emit a 2-byte pointer to the earlier occurrence.
      w.u16(static_cast<std::uint16_t>(0xc000 | *target));
      return;
    }
    // Remember this suffix's offset (only representable offsets).
    if (w.size() <= 0x3fff && count_ < kCapacity) {
      entries_[count_++] = {static_cast<std::uint16_t>(w.size()),
                            static_cast<std::uint8_t>(wire.size() - at)};
    }
    const std::size_t n = 1u + static_cast<std::uint8_t>(wire[at]);
    w.raw(std::string_view(&wire[at], n));
    at += n;
  }
  w.u8(0);
}

void write_name_uncompressed(ByteWriter& w, const DomainName& name) {
  w.raw(name.wire());
  w.u8(0);
}

bool read_name(Cursor& c, DomainName& out) {
  std::size_t len = 0;
  std::size_t labels = 0;
  bool jumped = false;
  Cursor::Mark resume_at;
  int jumps = 0;

  for (;;) {
    std::uint8_t n = c.u8();
    if (!c.ok()) return false;
    if ((n & 0xc0) == 0xc0) {
      // Compression pointer: 14-bit offset into the message.
      std::uint8_t low = c.u8();
      if (!c.ok()) return false;
      std::size_t target = static_cast<std::size_t>(n & 0x3f) << 8 | low;
      if (!jumped) {
        resume_at = c.mark();
        jumped = true;
      }
      // jump_back() enforces the strictly-backwards rule; combined with
      // the jump cap this prevents loops.
      if (++jumps > 32 || !c.jump_back(target)) return false;
      continue;
    }
    if ((n & 0xc0) != 0) return false;  // reserved label types
    if (n == 0) break;
    std::string_view raw = c.chars(n);
    if (!c.ok()) return false;
    if (len + 1u + n + 1u > kMaxNameLength) return false;
    out.wire_[len] = static_cast<char>(n);
    raw.copy(&out.wire_[len + 1], n);
    len += 1u + n;
    ++labels;
  }

  if (jumped) c.resume(resume_at);
  out.len_ = static_cast<std::uint8_t>(len);
  out.labels_ = static_cast<std::uint8_t>(labels);
  return true;
}

}  // namespace dnsguard::dns
