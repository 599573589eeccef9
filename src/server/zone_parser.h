// Minimal RFC 1035 master-file parser.
//
// Supports the subset a DNS-guard deployment actually feeds an ANS:
//   * $ORIGIN and $TTL directives
//   * comments (';' to end of line) and blank lines
//   * '@' for the origin, relative and absolute owner names
//   * owner inheritance (a line starting with whitespace reuses the
//     previous owner)
//   * optional per-record TTL, class IN (optional)
//   * record types: SOA (with multi-line parenthesized RDATA), NS, A,
//     CNAME, TXT (quoted strings)
//
// Errors carry the 1-based line number for operator-friendly messages.
#pragma once

#include <string>
#include <string_view>
#include <variant>

#include "server/zone.h"

namespace dnsguard::server {

struct ZoneParseError {
  int line = 0;
  std::string message;

  [[nodiscard]] std::string to_string() const {
    return "line " + std::to_string(line) + ": " + message;
  }
};

using ZoneParseResult = std::variant<Zone, ZoneParseError>;

/// Parses master-file `text`. `default_origin` seeds $ORIGIN-less files;
/// a $ORIGIN directive overrides it.
[[nodiscard]] ZoneParseResult parse_zone(std::string_view text,
                                         const dns::DomainName& default_origin);

}  // namespace dnsguard::server
