// Consistent hashing for cache-server selection.
//
// Apache Traffic Control's Traffic Router consistent-hashes request paths
// onto the caches of the selected cache group so that each object lives on
// a stable server — crucial at a small MEC site, where spraying requests
// across caches would multiply the working set ("disaggregation of requests
// ... may increase the cache miss rate", §2 observation 2).
//
// The ring also supports *bounded-load* consistent hashing (Mirrokni et
// al. style): each member can carry a capacity, and `pick_bounded` walks
// clockwise past members that are already full. Combined with the churn
// helper `remap_fraction`, this gives the consistency objective of Huang
// et al. (Consistent User-Traffic Allocation and Load Balancing in Mobile
// Edge Caching): membership changes move O(K/n) keys and no member is
// ever loaded past its capacity.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name.h"

namespace mecdns::cdn {

class ConsistentHashRing {
 public:
  /// `vnodes` = virtual nodes per member; more gives smoother balance.
  explicit ConsistentHashRing(unsigned vnodes = 64) : vnodes_(vnodes) {}

  /// Test seam: replace the position hash (e.g. to force virtual-node
  /// collisions). Must be called before any `add`.
  void set_hasher(std::function<std::uint64_t(const std::string&)> hasher) {
    hasher_ = std::move(hasher);
  }

  void add(const std::string& member);
  void remove(const std::string& member);
  bool contains(const std::string& member) const {
    return members_.count(member) != 0;
  }
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  std::vector<std::string> members() const;

  /// The member owning `key`, or nullopt when the ring is empty.
  std::optional<std::string> pick(const std::string& key) const {
    return pick_hashed(position(key));
  }
  /// pick(name.to_string()), without building the string unless a test
  /// hasher is installed.
  std::optional<std::string> pick_name(const dns::DnsName& name) const {
    return pick_hashed(name_position(name));
  }

  // --- bounded load -------------------------------------------------------
  /// Capacity in load units (whatever `add_load` counts); 0 = unlimited.
  void set_capacity(const std::string& member, std::uint64_t capacity);
  std::uint64_t capacity(const std::string& member) const;
  std::uint64_t load(const std::string& member) const;
  void add_load(const std::string& member, std::uint64_t units = 1);
  /// Zero every member's load (start of a new accounting window).
  void reset_loads();

  /// The first member clockwise from `key` with spare capacity; nullopt
  /// when the ring is empty or every member is at capacity. `overflowed`,
  /// when non-null, reports whether the pick differs from the unbounded
  /// owner (i.e. the primary was full).
  std::optional<std::string> pick_bounded(const std::string& key,
                                          bool* overflowed = nullptr) const {
    return pick_bounded_hashed(position(key), overflowed);
  }
  /// pick_bounded(name.to_string()), as pick_name() is to pick().
  std::optional<std::string> pick_bounded_name(
      const dns::DnsName& name, bool* overflowed = nullptr) const {
    return pick_bounded_hashed(name_position(name), overflowed);
  }

  /// Fraction of `probes` synthetic keys whose (unbounded) owner differs
  /// between two rings — the allocation-churn cost of a topology change.
  static double remap_fraction(const ConsistentHashRing& before,
                               const ConsistentHashRing& after,
                               std::size_t probes = 256);

  /// Stable 64-bit hash used for ring positions and keys (FNV-1a).
  static std::uint64_t hash(std::string_view text);

  /// hash() of a DNS name's presentation form (labels joined by '.', the
  /// root as "."), streamed from its wire labels (length-prefixed, no root
  /// octet) without building the string. Equal to hash(name.to_string()).
  static std::uint64_t hash_wire_name(std::string_view wire_labels);

 private:
  struct Member {
    std::uint64_t capacity = 0;  // 0 = unlimited
    std::uint64_t load = 0;
  };

  std::uint64_t position(const std::string& text) const {
    return hasher_ ? hasher_(text) : hash(text);
  }
  std::uint64_t name_position(const dns::DnsName& name) const {
    return hasher_ ? hasher_(name.to_string())
                   : hash_wire_name(name.wire_labels());
  }
  std::optional<std::string> pick_hashed(std::uint64_t position) const;
  std::optional<std::string> pick_bounded_hashed(std::uint64_t position,
                                                 bool* overflowed) const;
  bool has_room(const Member& m) const {
    return m.capacity == 0 || m.load < m.capacity;
  }

  unsigned vnodes_;
  std::function<std::uint64_t(const std::string&)> hasher_;
  // Virtual-node positions can collide (notably under an injected test
  // hasher), so the ring is a multimap: colliding vnodes coexist and
  // removal erases only the departing member's entries.
  std::multimap<std::uint64_t, std::string> ring_;
  std::map<std::string, Member> members_;
};

}  // namespace mecdns::cdn
