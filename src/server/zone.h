// Zone database for the authoritative name server.
//
// A Zone holds the records of one zone (its apex SOA/NS set, in-zone data,
// delegation points with glue). The paper's testbed serves a small
// root/com/foo.com hierarchy (Fig. 1); zones here can be built
// programmatically or parsed from a minimal master-file-like text format.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/message.h"
#include "dns/records.h"

namespace dnsguard::server {

class Zone {
 public:
  explicit Zone(dns::DomainName origin) : origin_(std::move(origin)) {}

  [[nodiscard]] const dns::DomainName& origin() const { return origin_; }

  /// Adds a record. Records for names outside the zone are rejected
  /// (returns false) except A records for out-of-zone nameservers, which
  /// are kept as glue.
  bool add(dns::ResourceRecord rr);

  /// Convenience builders.
  void add_a(std::string_view name, net::Ipv4Address addr,
             std::uint32_t ttl = 3600);
  void add_ns(std::string_view zone_name, std::string_view ns_name,
              std::uint32_t ttl = 3600);
  void add_cname(std::string_view name, std::string_view target,
                 std::uint32_t ttl = 3600);
  void add_soa(std::uint32_t serial = 1, std::uint32_t ttl = 3600);

  /// All records whose owner is `name` with type `type`.
  [[nodiscard]] std::vector<dns::ResourceRecord> find(
      const dns::DomainName& name, dns::RrType type) const;

  /// Any records at `name` (for NODATA vs NXDOMAIN distinction)?
  [[nodiscard]] bool has_name(const dns::DomainName& name) const;

  /// Does `name` fall under a delegation cut strictly below the apex?
  /// Returns the deepest such cut's zone name.
  [[nodiscard]] std::optional<dns::DomainName> delegation_for(
      const dns::DomainName& name) const;

  /// The apex SOA record if present.
  [[nodiscard]] std::optional<dns::ResourceRecord> soa() const;

  /// Moves all records of `other` (same origin) into this zone.
  void merge(Zone other);

  [[nodiscard]] std::size_t record_count() const;

 private:
  struct NameKey {
    std::string canonical;  // lowercased presentation form
    auto operator<=>(const NameKey&) const = default;
  };
  static NameKey key_of(const dns::DomainName& name);

  dns::DomainName origin_;
  // DNSGUARD_LINT_ALLOW(bounded): operator-loaded zone data, populated
  // from zone files at startup; queries only read it
  std::map<NameKey, std::vector<dns::ResourceRecord>> records_;
  std::vector<dns::DomainName> delegations_;  // child zone cut names
};

/// The answer a server engine produced, tagged with the paper's
/// referral/non-referral distinction (§III.B).
enum class AnswerKind { Authoritative, Referral, NxDomain, NoData, Refused };

struct Answer {
  AnswerKind kind = AnswerKind::Refused;
  dns::Message message;
};

/// A set of zones plus the RFC-compliant answer logic of an authoritative
/// server: referrals at delegation cuts (NS + glue in additional), CNAME
/// chasing inside the zone, NXDOMAIN/NODATA with SOA.
class AuthoritativeEngine {
 public:
  /// Adds a zone; zones must not nest ambiguously (deepest match wins).
  void add_zone(Zone zone);

  [[nodiscard]] Answer answer(const dns::Message& query) const;

  [[nodiscard]] const Zone* zone_for(const dns::DomainName& name) const;

 private:
  std::vector<Zone> zones_;
};

/// Builds the paper's Figure-1 example hierarchy: a root zone delegating
/// "com", a com zone delegating "foo.com", and a foo.com zone with
/// www/mail hosts. `server_addrs` supplies the ANS addresses to delegate
/// to; used by tests and examples.
struct ExampleHierarchy {
  Zone root;
  Zone com;
  Zone foo_com;
};
[[nodiscard]] ExampleHierarchy make_example_hierarchy(
    net::Ipv4Address root_server, net::Ipv4Address com_server,
    net::Ipv4Address foo_server);

}  // namespace dnsguard::server
