// Lowercase-hex encoding/decoding.
//
// The DNS-based scheme encodes the first 4 cookie bytes as 8 hex characters
// inside a fabricated NS label ("PRa1b2c3d4"), so hex round-tripping is part
// of the protocol, not just debugging output.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace dnsguard {

/// The value of one hex digit, either case; -1 if `c` is not one.
[[nodiscard]] int hex_value(char c);

/// The lowercase hex digit for the low 4 bits of `v`.
[[nodiscard]] char hex_digit(unsigned v);

/// Encodes bytes as lowercase hex ("0..9a..f"), 2 chars per byte.
[[nodiscard]] std::string hex_encode(BytesView data);

/// Decodes lowercase/uppercase hex. Returns nullopt on odd length or any
/// non-hex character.
[[nodiscard]] std::optional<Bytes> hex_decode(std::string_view hex);

/// True iff every character of `s` is a hex digit.
[[nodiscard]] bool is_hex(std::string_view s);

}  // namespace dnsguard
