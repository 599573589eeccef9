// RFC 1035 domain names.
//
// A DomainName is a sequence of labels ("www", "foo", "com"); the root is
// the empty sequence. Wire encoding supports message compression (pointer
// labels), which the decoder follows with loop protection. RFC 1035 limits
// matter to the paper: the DNS-based scheme embeds an 10-char cookie prefix
// plus the original first label in one label, so the 63-byte label limit
// bounds the cookie encoding budget (§III.B.1, issue four).
//
// The name is held in its uncompressed wire form, inline: each label as a
// length byte followed by its octets, without the terminating zero byte.
// Every transform (suffix, parent, prefixing, comparison, hashing) is a
// byte copy or compare over that buffer, so none of them allocates.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "dns/cursor.h"

namespace dnsguard::dns {

inline constexpr std::size_t kMaxLabelLength = 63;
inline constexpr std::size_t kMaxNameLength = 255;

class DomainName {
 public:
  DomainName() = default;  // the root name "."

  /// Parses "www.foo.com" or "www.foo.com." (trailing dot optional; "." is
  /// the root). Rejects empty labels, oversize labels and oversize names.
  [[nodiscard]] static std::optional<DomainName> parse(std::string_view text);

  /// `head`'s labels followed by `tail`'s ("www" + "foo.com" ->
  /// "www.foo.com"). Returns nullopt if the result would exceed 255 bytes.
  [[nodiscard]] static std::optional<DomainName> concat(
      const DomainName& head, const DomainName& tail);

  [[nodiscard]] bool is_root() const { return labels_ == 0; }
  [[nodiscard]] std::size_t label_count() const { return labels_; }

  /// Presentation form with trailing dot ("www.foo.com.", root is ".").
  [[nodiscard]] std::string to_string() const;

  /// Wire length: 1 length byte per label + label bytes + terminating 0.
  [[nodiscard]] std::size_t wire_length() const { return len_ + 1u; }

  /// The uncompressed wire form without its terminating zero byte: each
  /// label as a length byte followed by the label's octets.
  [[nodiscard]] std::string_view wire() const { return {wire_.data(), len_}; }

  /// Case-insensitive equality (RFC 1035 §2.3.3).
  [[nodiscard]] bool equals(const DomainName& other) const;

  /// True iff `this` is `ancestor` or lies underneath it
  /// ("www.foo.com" is_subdomain_of "com" and "foo.com" and itself).
  [[nodiscard]] bool is_subdomain_of(const DomainName& ancestor) const;

  /// Strips the leftmost label ("www.foo.com" -> "foo.com"); root -> root.
  [[nodiscard]] DomainName parent() const;

  /// Prepends a label ("foo.com".with_prefix_label("www") -> "www.foo.com").
  /// Returns nullopt if the result would violate length limits.
  [[nodiscard]] std::optional<DomainName> with_prefix_label(
      std::string_view label) const;

  /// The leftmost label, or "" for the root.
  [[nodiscard]] std::string_view first_label() const;

  /// Keeps only the rightmost `n` labels ("www.foo.com".suffix(2) ->
  /// "foo.com").
  [[nodiscard]] DomainName suffix(std::size_t n) const;

  /// Case-insensitive 32-bit FNV-1a hash of the label sequence. Equal names
  /// (RFC 1035 case folding) hash equal; allocation-free. Used to key
  /// observability journeys by qname.
  [[nodiscard]] std::uint32_t hash32() const;

  bool operator==(const DomainName& other) const { return equals(other); }

 private:
  friend bool read_name(Cursor& c, DomainName& out);

  /// Appends one label; false (name unchanged) if it is empty, longer
  /// than 63 bytes, or would push the name past 255 wire bytes.
  bool push_label(std::string_view label);
  /// Byte offset of label `k` (0 = leftmost) in wire_.
  [[nodiscard]] std::size_t label_offset(std::size_t k) const;
  /// The name formed by wire_[at, len_), which holds `labels` labels.
  [[nodiscard]] DomainName tail(std::size_t at, std::size_t labels) const;

  std::array<char, kMaxNameLength> wire_{};
  std::uint8_t len_ = 0;     // bytes used in wire_
  std::uint8_t labels_ = 0;  // label count
};

/// Tracks names already emitted in a message so later occurrences can be
/// encoded as compression pointers (RFC 1035 §4.1.4).
///
/// Table-free: it remembers only where each suffix was written, and checks
/// a candidate by comparing it, case-insensitively, with the bytes already
/// in the output, following the pointers found there. The entry array has
/// a fixed capacity and never allocates; once it is full, later suffixes
/// are not recorded, so output stays valid and is at most less compressed.
class NameCompressor {
 public:
  /// Suffixes remembered per message; every message the tests and benches
  /// encode fits (the largest writes 201).
  static constexpr std::size_t kCapacity = 256;

  /// Writes `name` at the current writer position, emitting a pointer to an
  /// earlier occurrence of the longest possible suffix.
  void write(ByteWriter& w, const DomainName& name);

 private:
  struct Entry {
    std::uint16_t offset;  // where the suffix starts in the output
    std::uint8_t length;   // its uncompressed wire length, zero excluded
  };

  /// Output offset of an earlier occurrence of `name`'s suffix starting
  /// at byte `at` of its wire form, if one was recorded.
  [[nodiscard]] std::optional<std::uint16_t> find(BytesView out,
                                                  std::string_view wire,
                                                  std::size_t at) const;

  std::array<Entry, kCapacity> entries_;
  std::size_t count_ = 0;
};

/// Writes `name` without compression (used inside RDATA where some
/// implementations choke on pointers, and by the guard's fabricated names).
void write_name_uncompressed(ByteWriter& w, const DomainName& name);

/// Decodes a (possibly compressed) name starting at the cursor's position
/// into `out`. Follows pointers with cycle protection; the cursor ends up
/// positioned just past the name's in-place bytes. Returns false on
/// malformation, leaving `out` unspecified.
[[nodiscard]] bool read_name(Cursor& c, DomainName& out);

}  // namespace dnsguard::dns
