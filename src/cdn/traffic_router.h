// CDN request router (C-DNS), modelled on Apache Traffic Control's Traffic
// Router in DNS-routing mode.
//
// Answers A queries for delivery-service names with the address of a cache
// server chosen by: coverage zone (client subnet -> cache group), geo
// fallback, health, and consistent hashing within the group. When the
// content's delivery service is not deployed at this tier, it emits a
// cascading CNAME into a parent tier's CDN domain — the paper's "C-DNS
// simply returns the address of another C-DNS running at a different CDN
// tier". With ECS enabled it localizes on the client subnet instead of the
// resolver address and reports the answer's scope (RFC 7871).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cdn/consistent_hash.h"
#include "cdn/coverage.h"
#include "cdn/geo.h"
#include "dns/server.h"
#include "obs/journal.h"

namespace mecdns::cdn {

struct CacheInfo {
  std::string name;
  simnet::Ipv4Address address;
  bool healthy = true;
};

/// One delivery service: a content family routed under `domain`.
struct DeliveryService {
  std::string id;
  dns::DnsName domain;  ///< A-queries for this name or below are routed
  std::vector<std::string> cache_groups;  ///< groups allowed to serve it
};

struct RouterStats {
  std::uint64_t routed = 0;
  std::uint64_t referred_to_parent = 0;
  std::uint64_t no_cache_available = 0;
  std::uint64_t coverage_hits = 0;
  std::uint64_t geo_fallbacks = 0;
  std::uint64_t ecs_localized = 0;
  // Bounded-load allocation (only moves when cache_capacity_per_window > 0).
  std::uint64_t bounded_overflows = 0;   ///< primary cache full, walked on
  std::uint64_t capacity_exhausted = 0;  ///< every cache in the group full
  // Allocation churn: how many keys a cache-group membership change moved.
  std::uint64_t topology_changes = 0;
  double last_remap_fraction = 0.0;
  double max_remap_fraction = 0.0;
  double remap_fraction_sum = 0.0;  ///< sum over changes (mean = sum/changes)
};

class TrafficRouter : public dns::DnsServer {
 public:
  struct Config {
    dns::DnsName cdn_domain;   ///< apex this router is authoritative for
    std::uint32_t answer_ttl = 30;  ///< small, like real CDN A records
    bool use_ecs = false;      ///< localize on ECS subnet when present
    /// Parent-tier CDN domain for content not deployed here.
    std::optional<dns::DnsName> parent_domain;
    /// Location of this router's client base, for geo fallback distance.
    std::map<std::string, GeoPoint> group_locations;
    /// Bounded-load consistent hashing: max selections per cache per
    /// one-second accounting window (0 disables; plain consistent hashing).
    /// When the primary cache is full the pick overflows clockwise; when
    /// every cache in the group is full the query takes the no-cache path
    /// (parent-tier referral when configured) — overload degrades to the
    /// next tier instead of melting the local caches.
    std::uint64_t cache_capacity_per_window = 0;
  };

  TrafficRouter(netio::Runtime& runtime, std::string name,
                simnet::LatencyModel processing_delay, Config config,
                std::uint16_t port = dns::kDnsPort,
                simnet::Ipv4Address addr = simnet::Ipv4Address());
  ~TrafficRouter() override;

  // --- topology management (what Traffic Ops feeds the router) -----------
  void add_cache_group(const std::string& group);
  void add_cache(const std::string& group, CacheInfo cache);
  void set_cache_healthy(const std::string& group, const std::string& cache,
                         bool healthy);
  void add_delivery_service(DeliveryService service);
  bool has_delivery_service(const std::string& id) const;

  CoverageZoneMap& coverage() { return coverage_; }
  GeoIpDatabase& geo() { return geo_; }
  void set_use_ecs(bool use) { config_.use_ecs = use; }
  void set_answer_ttl(std::uint32_t ttl) { config_.answer_ttl = ttl; }
  /// Registers a group's location for the geo fallback's distance choice.
  void set_group_location(const std::string& group, GeoPoint location) {
    config_.group_locations[group] = location;
  }
  /// Journals the *edge into* parent-referral mode (first referral after
  /// any locally routed query), not every referred query — referral storms
  /// are per-query traffic, the transition is the control-plane fact.
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

  const RouterStats& router_stats() const { return router_stats_; }
  /// Per-cache selection counts (cache name -> queries routed to it).
  const std::map<std::string, std::uint64_t>& selections() const {
    return selections_;
  }

 protected:
  void handle(const dns::Query& query, const dns::QueryContext& ctx,
              Responder&& respond) override;

 private:
  struct Group {
    std::vector<CacheInfo> caches;
    ConsistentHashRing ring{64};
    // Accounting window the ring's loads belong to; sentinel forces a
    // reset on first use.
    std::uint64_t load_window = UINT64_MAX;
  };

  /// An ECS-localized answer waiting out the extra processing time; the
  /// timer captures the slot, and the router cancels it if it dies first.
  struct EcsAnswer {
    dns::Message response;
    Responder respond;
    netio::TimerId timer = netio::kNoTimer;
  };

  const DeliveryService* match_service(const dns::DnsName& qname) const;
  std::optional<std::string> choose_group(const DeliveryService& service,
                                          simnet::Ipv4Address client_addr);
  std::optional<CacheInfo> choose_cache(const std::string& group,
                                        const dns::DnsName& qname);
  void rebuild_ring(Group& group);

  Config config_;
  std::map<std::string, Group> groups_;
  std::vector<DeliveryService> services_;
  CoverageZoneMap coverage_;
  GeoIpDatabase geo_;
  RouterStats router_stats_;
  std::map<std::string, std::uint64_t> selections_;
  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;
  /// True between the first parent referral and the next locally routed
  /// query; journals the transition only.
  bool referring_ = false;
  util::SlotPool<EcsAnswer> ecs_answers_;
};

}  // namespace mecdns::cdn
