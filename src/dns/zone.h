// Authoritative zone data and lookup semantics (RFC 1034 §4.3.2).
//
// Supports exact matches, CNAME indirection, wildcard synthesis, zone cuts
// (delegations with glue) and negative answers with the zone SOA — enough to
// faithfully host the public hierarchy (root, TLD, CDN authoritative zones)
// and the MEC cluster namespaces.
//
// The zone is a hash index of names, so a lookup costs a few probes
// whatever the zone's size. Besides every owner name, the index holds each
// of its ancestors down to the origin (RFC 4592 empty non-terminals), and
// every node counts the RRsets at or below it: a name exists exactly when
// it has a node, so an in-zone NXDOMAIN — whose name a client picks, as in
// a random-subdomain flood — is one probe, not a scan of the zone.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "util/flat_map.h"
#include "util/result.h"

namespace mecdns::dns {

enum class LookupStatus {
  kSuccess,     ///< records of the requested type found
  kCname,       ///< a CNAME exists at the name (records holds it)
  kDelegation,  ///< a zone cut is above/at the name (records holds NS)
  kNoData,      ///< the name exists but has no records of the type
  kNxDomain,    ///< the name does not exist in the zone
  kOutOfZone,   ///< the name is not within this zone's origin
};

std::string to_string(LookupStatus status);

struct LookupResult {
  LookupStatus status = LookupStatus::kNxDomain;
  /// Matched/synthesized records: answers for kSuccess/kCname, the NS set
  /// for kDelegation, empty otherwise.
  std::vector<ResourceRecord> records;
  /// Glue A records for kDelegation nameservers when available in-zone.
  std::vector<ResourceRecord> glue;
  /// The zone SOA, populated for kNoData/kNxDomain (negative answers).
  std::vector<ResourceRecord> soa;
  /// True when the answer was synthesized from a wildcard.
  bool from_wildcard = false;
};

/// One authoritative zone rooted at `origin`.
class Zone {
 public:
  explicit Zone(DnsName origin) : origin_(std::move(origin)) {}

  const DnsName& origin() const { return origin_; }

  /// Adds a record. The owner name must be within the zone. Adding a CNAME
  /// alongside other data at the same name is rejected (RFC 1034 §3.6.2),
  /// as is a second CNAME at the same owner.
  util::Result<void> add(ResourceRecord rr);

  /// Convenience: adds, throwing on error. For static test/scenario data.
  void must_add(ResourceRecord rr);

  /// Removes all records at (name, type). Returns how many were removed.
  std::size_t remove(const DnsName& name, RecordType type);

  /// Removes every record whose owner is `name`.
  std::size_t remove_name(const DnsName& name);

  /// Full RFC 1034 lookup.
  LookupResult lookup(const DnsName& name, RecordType type) const;

  /// Direct RRset fetch without delegation/wildcard processing.
  std::vector<ResourceRecord> find(const DnsName& name, RecordType type) const;

  bool empty() const { return nodes_.empty(); }
  std::size_t record_count() const;

  /// All records in canonical order (owner by RFC 4034 §6.1, then type);
  /// sorts on every call, for tests and debugging.
  std::vector<ResourceRecord> all() const;

 private:
  struct RRset {
    RecordType type;
    std::vector<ResourceRecord> records;
  };
  /// One name of the zone: its own RRsets (sorted by type, none for an
  /// empty non-terminal) and the number of RRsets at or below it. A node
  /// is erased when that count reaches 0.
  struct Node {
    std::vector<RRset> rrsets;
    std::size_t rrsets_below = 0;

    const std::vector<ResourceRecord>* find(RecordType type) const;
  };

  const Node* node(const DnsName& name) const;
  const std::vector<ResourceRecord>* rrset(const DnsName& name,
                                           RecordType type) const;

  /// Adds `delta` to the RRset count of `owner` and of every ancestor down
  /// to the origin, creating missing nodes and erasing emptied ones.
  void count_rrsets(const DnsName& owner, std::ptrdiff_t delta);

  /// Finds a zone cut strictly below the apex on the path from the apex to
  /// `name`. Returns the NS RRset owner if found.
  const std::vector<ResourceRecord>* find_delegation(const DnsName& name,
                                                     DnsName* cut) const;

  bool name_exists(const DnsName& name) const { return node(name) != nullptr; }

  DnsName origin_;
  util::FlatHashMap<DnsName, Node> nodes_;
};

}  // namespace mecdns::dns
