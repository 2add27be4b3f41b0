// MecCdnSite: the paper's proposed system, assembled.
//
// One MEC location hosting a Kubernetes-like cluster that the site places
// itself — the orchestrator of §3 P1, which already knows every name the
// MEC L-DNS must answer:
//  * a gateway node and workers on a fast fabric, each service at a stable
//    cluster IP from the service CIDR and named in the internal
//    "cluster.local" zone,
//  * CoreDNS as the split-namespace MEC L-DNS (dns::PluginChainServer with
//    an "internal" view for VNF service discovery and a "public" view for
//    mobile clients),
//  * the CDN's request router C-DNS (cdn::TrafficRouter) at a fixed cluster
//    IP, chained behind the L-DNS by a stub-domain forward — P2's
//    "combines the L-DNS lookup with a C-DNS lookup carried out at the
//    first hop, in the MEC",
//  * edge cache servers registered with the router and warmed/backed by an
//    origin,
//  * optional overload fallback (P1's DoS mitigation) and optional parent
//    CDN tier for content not deployed at the edge.
//
// Mobile clients only ever see cluster IPs — the public-IP-reuse property
// §5 highlights.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdn/cache_server.h"
#include "cdn/traffic_router.h"
#include "dns/plugin.h"
#include "dns/zone.h"
#include "mec/ingress.h"
#include "obs/metrics.h"

namespace mecdns::core {

class MecCdnSite {
 public:
  /// Edge cache replicas a site deploys (the autoscaler's floor).
  static constexpr std::size_t kEdgeCaches = 2;

  struct Config {
    /// Cluster name: node names are "<name>-gw", "<name>-infra", ...
    std::string name = "mec";
    /// Node (host) addresses; .1 is the gateway.
    simnet::Cidr node_cidr = simnet::Cidr::must_parse("10.240.0.0/24");
    /// Cluster-IP (Service) range, like kube-proxy's service CIDR.
    simnet::Cidr service_cidr = simnet::Cidr::must_parse("10.96.0.0/16");

    /// CDN apex served at this site, e.g. "mycdn.ciab.test".
    dns::DnsName cdn_domain = dns::DnsName::must_parse("mycdn.ciab.test");

    /// Where the C-DNS runs. In-cluster (nullopt) is the paper's proposal;
    /// an external endpoint models the ETSI/3GPP "L-DNS at MEC only"
    /// deployments of Figure 5 (LAN or WAN C-DNS).
    std::optional<simnet::Endpoint> external_cdns;

    /// TTL on routed A answers. 0 forces per-query routing (every lookup
    /// reaches the C-DNS), matching the testbed measurements.
    std::uint32_t answer_ttl = 0;

    bool enable_ecs = false;

    /// Provider L-DNS to forward non-MEC queries to (unset: REFUSED, which
    /// multicast-mode stubs treat as "ask your provider").
    std::optional<simnet::Endpoint> provider_ldns;

    /// Parent-tier CDN domain for delivery services not deployed here.
    std::optional<dns::DnsName> parent_cdn_domain;

    /// Origin (or mid-tier cache) the edge caches fetch misses from.
    std::optional<simnet::Endpoint> origin;

    /// Queries/second above which the overload guard sheds to the provider
    /// path. 0 disables the guard.
    std::size_t overload_threshold_qps = 0;

    /// Recovery hysteresis for the overload guard: consecutive
    /// below-threshold windows before re-admitting (0 = stateless guard).
    std::size_t overload_recovery_windows = 0;

    /// What the guard answers when shedding. kServFail composes with the
    /// client transport's SERVFAIL failover for one-RTT fallback to the
    /// provider.
    mec::OverloadAction overload_action = mec::OverloadAction::kRefuse;

    /// L-DNS service capacity: worker concurrency + bounded FIFO. 0 workers
    /// keeps the legacy unlimited-concurrency server.
    std::size_t ldns_workers = 0;
    std::size_t ldns_max_queue = 256;

    /// Queue-probe admission control: shed when the L-DNS worker FIFO is at
    /// or beyond this depth (0 disables; requires the overload guard).
    std::size_t overload_queue_limit = 0;

    /// Bounded-load edge allocation on the in-cluster C-DNS: max routed
    /// selections per cache per one-second window (0 = plain consistent
    /// hashing).
    std::uint64_t cache_selection_capacity = 0;

    /// RFC 8767 serve-stale on the L-DNS public-view cache: keep expired
    /// entries for an hour and serve them when the C-DNS path answers
    /// SERVFAIL (edge-cache partition, router down).
    bool serve_stale = false;

    /// Append provider_ldns to the CDN stub-domain forward's upstream list
    /// and fail over to it on C-DNS timeout or SERVFAIL. The provider
    /// resolves the CDN domain through the public hierarchy (WAN C-DNS) —
    /// degraded latency, preserved availability. Requires provider_ldns.
    bool cdns_fallback_to_provider = false;

    /// DNS server processing-time models (per query).
    simnet::LatencyModel ldns_processing = simnet::LatencyModel::normal(
        simnet::SimTime::millis(1.1), simnet::SimTime::micros(200),
        simnet::SimTime::micros(200));
    simnet::LatencyModel cdns_processing = simnet::LatencyModel::normal(
        simnet::SimTime::millis(1.6), simnet::SimTime::micros(300),
        simnet::SimTime::micros(300));
  };

  MecCdnSite(simnet::Network& net, Config config);

  /// Deploys a delivery service: content under "<id>.<cdn_domain>" served
  /// by the edge cache group. Publishes the public namespace entry and
  /// registers the service with the C-DNS (when in-cluster).
  void add_delivery_service(const std::string& id,
                            const cdn::ContentCatalog& content,
                            bool warm_caches = true);

  // --- endpoints mobile clients / the RAN need ----------------------------
  /// The MEC L-DNS (CoreDNS public view) — what the UE's DNS is switched to.
  simnet::Endpoint ldns_endpoint() const;
  /// The C-DNS cluster IP (in-cluster deployments only).
  simnet::Endpoint cdns_endpoint() const;

  // --- the cluster -----------------------------------------------------------
  /// The node external traffic enters through (link it to the P-GW / LAN).
  simnet::NodeId gateway() const { return gateway_; }
  const simnet::Cidr& node_cidr() const { return config_.node_cidr; }
  const simnet::Cidr& service_cidr() const { return config_.service_cidr; }
  /// The public app namespace "apps.mec.test", served by the public view
  /// after the CDN forward; MEC apps become visible to mobile clients by
  /// being written here.
  std::shared_ptr<dns::Zone> public_zone() { return public_zone_; }

  // --- component access ----------------------------------------------------
  dns::PluginChainServer& ldns() { return *ldns_; }
  /// The cluster worker the L-DNS runs on.
  simnet::NodeId ldns_node() const { return ldns_node_; }
  /// Null when Config::external_cdns is set.
  cdn::TrafficRouter* router() { return router_.get(); }
  std::vector<cdn::CacheServer*> caches();
  mec::OverloadGuardPlugin* overload_guard() { return guard_; }
  /// The public view's stub-domain forward toward the C-DNS; toggle ECS on
  /// it (with router()->set_use_ecs) for the §4 ECS experiment.
  dns::ForwardPlugin* cdn_forward() { return cdn_forward_; }
  std::shared_ptr<dns::DnsCache> public_dns_cache() { return public_cache_; }

  /// The cluster-IP address of edge cache `i` (what the C-DNS answers).
  simnet::Ipv4Address cache_address(std::size_t i) const {
    return cache_ips_.at(i);
  }
  /// True if `addr` is one of this site's edge caches.
  bool is_edge_cache(simnet::Ipv4Address addr) const {
    return std::find(cache_ips_.begin(), cache_ips_.end(), addr) !=
           cache_ips_.end();
  }

  // --- elastic edge capacity (what an AutoScaler drives) -------------------
  /// Adds an edge cache replica: reactivates the lowest-index retired one,
  /// or deploys a fresh server (warmed with every catalog that was warmed
  /// at deploy time) and registers it with the in-cluster C-DNS. Returns
  /// nullptr, changing nothing, if the cluster is out of node or service
  /// addresses.
  cdn::CacheServer* add_edge_cache();
  /// Retires the highest-index active replica (deregisters it from the
  /// ring; the server object stays for later reactivation). Refuses to
  /// drop below one replica.
  bool retire_edge_cache();
  std::size_t active_edge_caches() const;

  /// Snapshots this site's counters into `registry` under `prefix`:
  /// L-DNS server/view/cache/forward/overload counters, C-DNS routing
  /// counters and per-edge-cache hit/miss/fetch counters.
  void export_metrics(obs::Registry& registry,
                      const std::string& prefix = "site.") const;

 private:
  /// Adds worker "<name>-<role>" at the first free node address, one fabric
  /// hop behind the gateway. Throws std::length_error when the node CIDR is
  /// used up.
  simnet::NodeId add_worker(const std::string& role);
  /// Binds `cluster_ip` to `worker` and names it
  /// "<service>.<ns>.svc.cluster.local" in the internal zone.
  void add_service(const std::string& service, const std::string& ns,
                   simnet::NodeId worker, simnet::Ipv4Address cluster_ip);
  /// Deploys edge cache caches_.size() at the first free cluster IP, warmed
  /// with warmed_catalogs_ and registered with the in-cluster C-DNS;
  /// nullptr when the cluster is out of node or service addresses.
  cdn::CacheServer* deploy_edge_cache();

  simnet::Network& net_;
  Config config_;
  simnet::NodeId gateway_ = simnet::kInvalidNode;
  /// Internal service discovery ("cluster.local"), served by the internal
  /// view.
  std::shared_ptr<dns::Zone> internal_zone_;
  std::shared_ptr<dns::Zone> public_zone_;
  mec::IngressMonitor ingress_;
  std::unique_ptr<dns::PluginChainServer> ldns_;
  std::unique_ptr<cdn::TrafficRouter> router_;
  std::vector<std::unique_ptr<cdn::CacheServer>> caches_;
  std::vector<simnet::Ipv4Address> cache_ips_;
  std::vector<bool> cache_active_;
  /// Catalogs warmed at deploy time, replayed onto scale-up replicas.
  std::vector<cdn::ContentCatalog> warmed_catalogs_;
  std::shared_ptr<dns::DnsCache> public_cache_;
  mec::OverloadGuardPlugin* guard_ = nullptr;
  dns::ForwardPlugin* cdn_forward_ = nullptr;
  simnet::NodeId ldns_node_ = simnet::kInvalidNode;
  simnet::Ipv4Address ldns_ip_;
  simnet::Ipv4Address cdns_ip_;
};

}  // namespace mecdns::core
