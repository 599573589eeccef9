#include "server/zone_parser.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <vector>

namespace dnsguard::server {
namespace {

/// A master-file token, tagged with the line it started on.
struct Token {
  std::string text;
  int line = 0;
  bool quoted = false;
};

/// Tokenizes the whole file, honoring comments, quoted strings and
/// parentheses (which merely allow RDATA to span lines — we record a
/// synthetic newline token otherwise, plus a flag when a line starts
/// with whitespace for owner inheritance).
struct Line {
  std::vector<Token> tokens;
  bool leading_ws = false;
  int number = 0;
};

std::vector<Line> tokenize(std::string_view text, std::string* error,
                           int* error_line) {
  std::vector<Line> lines;
  Line current;
  int line_no = 1;
  int paren_depth = 0;
  std::size_t i = 0;
  bool at_line_start = true;

  auto flush_line = [&] {
    if (!current.tokens.empty()) lines.push_back(std::move(current));
    current = Line{};
  };

  while (i < text.size()) {
    char c = text[i];
    if (c == '\n') {
      ++i;
      if (paren_depth == 0) flush_line();
      ++line_no;
      at_line_start = true;
      continue;
    }
    if (at_line_start) {
      current.number = current.tokens.empty() ? line_no : current.number;
      if ((c == ' ' || c == '\t') && current.tokens.empty()) {
        current.leading_ws = true;
      }
      at_line_start = false;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == ';') {  // comment to end of line
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (c == '(') {
      paren_depth++;
      ++i;
      continue;
    }
    if (c == ')') {
      if (paren_depth == 0) {
        *error = "unbalanced ')'";
        *error_line = line_no;
        return {};
      }
      paren_depth--;
      ++i;
      continue;
    }
    if (c == '"') {
      std::string s;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\n') {
          *error = "unterminated string";
          *error_line = line_no;
          return {};
        }
        s.push_back(text[i++]);
      }
      if (i >= text.size()) {
        *error = "unterminated string";
        *error_line = line_no;
        return {};
      }
      ++i;  // closing quote
      if (current.tokens.empty()) current.number = line_no;
      current.tokens.push_back(Token{std::move(s), line_no, true});
      continue;
    }
    std::string word;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i])) &&
           text[i] != ';' && text[i] != '(' && text[i] != ')') {
      word.push_back(text[i++]);
    }
    if (current.tokens.empty()) current.number = line_no;
    current.tokens.push_back(Token{std::move(word), line_no, false});
  }
  if (paren_depth != 0) {
    *error = "unbalanced '('";
    *error_line = line_no;
    return {};
  }
  flush_line();
  return lines;
}

bool parse_u32(std::string_view s, std::uint32_t* out) {
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size() || v > 0xffffffffull) {
    return false;
  }
  *out = static_cast<std::uint32_t>(v);
  return true;
}

/// Resolves a master-file name relative to the origin: '@' is the origin;
/// names without a trailing dot are relative.
std::optional<dns::DomainName> resolve_name(std::string_view text,
                                            const dns::DomainName& origin) {
  if (text == "@") return origin;
  if (!text.empty() && text.back() == '.') {
    return dns::DomainName::parse(text);
  }
  auto relative = dns::DomainName::parse(text);
  if (!relative) return std::nullopt;
  return dns::DomainName::concat(*relative, origin);
}

bool is_type_token(std::string_view t) {
  return t == "SOA" || t == "NS" || t == "A" || t == "CNAME" || t == "TXT";
}

}  // namespace

ZoneParseResult parse_zone(std::string_view text,
                           const dns::DomainName& default_origin) {
  std::string tok_error;
  int tok_error_line = 0;
  std::vector<Line> lines = tokenize(text, &tok_error, &tok_error_line);
  if (!tok_error.empty()) {
    return ZoneParseError{tok_error_line, tok_error};
  }

  dns::DomainName origin = default_origin;
  std::uint32_t default_ttl = 3600;
  std::optional<dns::DomainName> last_owner;
  std::vector<dns::ResourceRecord> records;

  for (const Line& line : lines) {
    const auto& t = line.tokens;
    if (t.empty()) continue;
    int ln = line.number;

    // Directives.
    if (t[0].text == "$ORIGIN") {
      if (t.size() != 2) return ZoneParseError{ln, "$ORIGIN needs one name"};
      auto n = dns::DomainName::parse(t[1].text);
      if (!n) return ZoneParseError{ln, "bad $ORIGIN name"};
      origin = *n;
      continue;
    }
    if (t[0].text == "$TTL") {
      if (t.size() != 2 || !parse_u32(t[1].text, &default_ttl)) {
        return ZoneParseError{ln, "$TTL needs one integer"};
      }
      continue;
    }
    if (t[0].text.starts_with("$")) {
      return ZoneParseError{ln, "unsupported directive " + t[0].text};
    }

    // Record line: [owner] [ttl] [class] type rdata...
    std::size_t idx = 0;
    dns::DomainName owner;
    if (line.leading_ws) {
      if (!last_owner) return ZoneParseError{ln, "no previous owner"};
      owner = *last_owner;
    } else {
      auto n = resolve_name(t[0].text, origin);
      if (!n) return ZoneParseError{ln, "bad owner name '" + t[0].text + "'"};
      owner = *n;
      idx = 1;
    }
    last_owner = owner;

    std::uint32_t ttl = default_ttl;
    // Optional TTL and/or class in either order (classic BIND tolerance).
    for (int pass = 0; pass < 2 && idx < t.size(); ++pass) {
      std::uint32_t maybe_ttl = 0;
      if (t[idx].text == "IN") {
        ++idx;
      } else if (!is_type_token(t[idx].text) &&
                 parse_u32(t[idx].text, &maybe_ttl)) {
        ttl = maybe_ttl;
        ++idx;
      }
    }
    if (idx >= t.size()) return ZoneParseError{ln, "missing record type"};
    std::string type = t[idx].text;
    ++idx;
    auto remaining = [&] { return t.size() - idx; };

    if (type == "A") {
      if (remaining() != 1) return ZoneParseError{ln, "A needs one address"};
      auto addr = net::Ipv4Address::parse(t[idx].text);
      if (!addr) return ZoneParseError{ln, "bad IPv4 address"};
      records.push_back(dns::ResourceRecord::a(owner, *addr, ttl));
      ++idx;
    } else if (type == "NS") {
      if (remaining() != 1) return ZoneParseError{ln, "NS needs one name"};
      auto n = resolve_name(t[idx].text, origin);
      if (!n) return ZoneParseError{ln, "bad NS target"};
      records.push_back(dns::ResourceRecord::ns(owner, *n, ttl));
      ++idx;
    } else if (type == "CNAME") {
      if (remaining() != 1) return ZoneParseError{ln, "CNAME needs one name"};
      auto n = resolve_name(t[idx].text, origin);
      if (!n) return ZoneParseError{ln, "bad CNAME target"};
      records.push_back(dns::ResourceRecord::cname(owner, *n, ttl));
      ++idx;
    } else if (type == "TXT") {
      if (remaining() < 1) return ZoneParseError{ln, "TXT needs strings"};
      dns::TxtRdata txt;
      for (; idx < t.size(); ++idx) {
        if (t[idx].text.size() > dns::TxtRdata::kMaxString) {
          return ZoneParseError{ln, "TXT string over 255 bytes"};
        }
        const Bytes text(t[idx].text.begin(), t[idx].text.end());
        if (!txt.append(BytesView(text))) {
          return ZoneParseError{ln, "TXT record over 512 bytes"};
        }
      }
      records.push_back(dns::ResourceRecord::txt(owner, std::move(txt), ttl));
      idx = t.size();
    } else if (type == "SOA") {
      if (remaining() != 7) {
        return ZoneParseError{ln, "SOA needs mname rname and 5 integers"};
      }
      dns::SoaRdata soa;
      auto mname = resolve_name(t[idx].text, origin);
      auto rname = resolve_name(t[idx + 1].text, origin);
      if (!mname || !rname) return ZoneParseError{ln, "bad SOA names"};
      soa.mname = *mname;
      soa.rname = *rname;
      std::uint32_t* fields[5] = {&soa.serial, &soa.refresh, &soa.retry,
                                  &soa.expire, &soa.minimum};
      for (int f = 0; f < 5; ++f) {
        if (!parse_u32(t[idx + 2 + static_cast<std::size_t>(f)].text,
                       fields[f])) {
          return ZoneParseError{ln, "bad SOA integer"};
        }
      }
      records.push_back(dns::ResourceRecord::soa(owner, std::move(soa), ttl));
      idx = t.size();
    } else {
      return ZoneParseError{ln, "unsupported record type " + type};
    }
    if (idx != t.size()) {
      return ZoneParseError{ln, "trailing tokens after RDATA"};
    }
  }

  Zone zone(origin);
  for (auto& rr : records) {
    if (!zone.add(rr)) {
      return ZoneParseError{
          0, "record out of zone: " + rr.name.to_string() + " (origin " +
                 origin.to_string() + ")"};
    }
  }
  return zone;
}

}  // namespace dnsguard::server
